//! Device compute model.

use std::sync::Arc;

use serde::Serialize;

use s2m3_models::module::{ModuleKind, ModuleSpec};

use crate::calibration as cal;

/// Relative per-kind throughput multipliers of a device.
///
/// Real hardware is not uniformly fast across workloads: the paper's
/// measurements imply its desktop is relatively stronger on convolutional
/// vision towers than on transformer text batches (Table X's observed
/// placement — vision on desktop, text on laptop — only emerges from
/// Eq. 5 if so). A factor of 1.0 means "runs at the device's base
/// GFLOP/s"; higher is faster for that module kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindEfficiency {
    /// Vision encoders.
    pub vision: f64,
    /// Text encoders.
    pub text: f64,
    /// Audio encoders.
    pub audio: f64,
    /// Language models.
    pub llm: f64,
}

impl Default for KindEfficiency {
    fn default() -> Self {
        KindEfficiency {
            vision: 1.0,
            text: 1.0,
            audio: 1.0,
            llm: 1.0,
        }
    }
}

impl KindEfficiency {
    /// The multiplier for `kind` (heads run at base speed).
    pub fn factor(&self, kind: ModuleKind) -> f64 {
        match kind {
            ModuleKind::VisionEncoder => self.vision,
            ModuleKind::TextEncoder => self.text,
            ModuleKind::AudioEncoder => self.audio,
            ModuleKind::LanguageModel => self.llm,
            ModuleKind::DistanceHead | ModuleKind::ClassifierHead => 1.0,
        }
    }
}

/// Stable device identity (`"server"`, `"desktop"`, `"laptop"`,
/// `"jetson-a"`, `"jetson-b"`).
///
/// The name is a shared string: a clone is a reference-count bump, while
/// equality, ordering, hashing and JSON all follow the string content.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct DeviceId(Arc<str>);

impl DeviceId {
    /// Creates a device id.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        DeviceId(Arc::from(name.into()))
    }

    /// The canonical name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DeviceId {
    fn from(s: &str) -> Self {
        DeviceId::new(s)
    }
}

/// One device of the testbed: the compute/memory half of Table III.
///
/// The latency model for running module `m` with `u` work units is
///
/// ```text
/// t_comp(m, n, u) = exec_overhead + unit_overhead · u + gflops(m, u) / speed
/// ```
///
/// — a fixed per-execution serving cost, a per-unit (per-prompt /
/// per-token) dispatch cost, and the FLOP time. The split captures why a
/// GPU server is barely faster than a laptop for single-image requests
/// (overhead-bound) yet crushes it on 101-prompt retrieval batches
/// (FLOP-bound), which is exactly the contrast in the paper's Table VI
/// VQA vs retrieval rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Identity.
    pub id: DeviceId,
    /// Human-readable description (CPU/GPU of Table III).
    pub description: String,
    /// Effective compute speed, GFLOP/s.
    pub speed_gflops: f64,
    /// Fixed serving overhead per module execution, seconds.
    pub exec_overhead_s: f64,
    /// Serving overhead per work unit, seconds.
    pub unit_overhead_s: f64,
    /// Usable memory for hosting modules, bytes (`R_n`).
    pub memory_bytes: u64,
    /// Concurrent module executions the device sustains (GPU streams = 2,
    /// edge CPUs = 1). S2M3's routing may overlap up to this many module
    /// runs; a centralized monolith is always sequential.
    pub parallelism: usize,
    /// Model-loading: fixed setup seconds.
    pub load_fixed_s: f64,
    /// Model-loading: streaming rate, MB/s.
    pub load_rate_mbps: f64,
    /// Per-module-kind throughput multipliers.
    pub efficiency: KindEfficiency,
}

impl DeviceSpec {
    /// Time to execute module `m` with `units` work units on this device,
    /// in seconds.
    pub fn compute_time(&self, m: &ModuleSpec, units: f64) -> f64 {
        let speed = self.speed_gflops * self.efficiency.factor(m.kind);
        self.exec_overhead_s + self.unit_overhead_s * units + m.gflops(units) / speed
    }

    /// Usable memory budget `R_n`, bytes.
    pub fn usable_memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Time to load module `m`'s weights into this device's memory,
    /// seconds (the end-to-end latency component of Table VII / Fig. 3).
    pub fn load_time(&self, m: &ModuleSpec) -> f64 {
        if m.params == 0 {
            // Non-parametric heads (cosine/InfoNCE) need no weight load.
            return 0.0;
        }
        self.load_fixed_s + (m.weight_bytes() as f64 / 1.0e6) / self.load_rate_mbps
    }

    /// The Tesla P40 server (GPU path), one MAN hop away.
    pub(crate) fn server() -> Self {
        DeviceSpec {
            id: "server".into(),
            description: "Intel Xeon Gold 5115 (33.7 GB) + Tesla P40 (23.9 GB)".into(),
            speed_gflops: cal::SERVER_GPU_GFLOPS,
            exec_overhead_s: cal::SERVER_EXEC_OVERHEAD_S,
            unit_overhead_s: cal::SERVER_UNIT_OVERHEAD_S,
            memory_bytes: cal::SERVER_MEM_BYTES,
            parallelism: cal::SERVER_PARALLELISM,
            load_fixed_s: cal::SERVER_LOAD.0,
            load_rate_mbps: cal::SERVER_LOAD.1,
            efficiency: KindEfficiency::default(),
        }
    }

    /// The server running on its CPU only (Table VII "Server (w/o GPU)").
    pub fn server_without_gpu() -> Self {
        DeviceSpec {
            speed_gflops: cal::SERVER_CPU_GFLOPS,
            parallelism: cal::EDGE_PARALLELISM,
            description: "Intel Xeon Gold 5115 (33.7 GB), GPU disabled".into(),
            ..Self::server()
        }
    }

    /// The i7-13700 desktop (wired PAN).
    pub fn desktop() -> Self {
        DeviceSpec {
            id: "desktop".into(),
            description: "Intel i7-13700 (31.7 GB)".into(),
            speed_gflops: cal::DESKTOP_GFLOPS,
            exec_overhead_s: cal::EDGE_EXEC_OVERHEAD_S,
            unit_overhead_s: cal::EDGE_UNIT_OVERHEAD_S,
            memory_bytes: cal::DESKTOP_MEM_BYTES,
            parallelism: cal::EDGE_PARALLELISM,
            load_fixed_s: cal::DESKTOP_LOAD.0,
            load_rate_mbps: cal::DESKTOP_LOAD.1,
            efficiency: KindEfficiency {
                vision: cal::DESKTOP_VISION_EFFICIENCY,
                ..KindEfficiency::default()
            },
        }
    }

    /// The Apple M3 Pro laptop (Wi-Fi PAN).
    pub fn laptop() -> Self {
        DeviceSpec {
            id: "laptop".into(),
            description: "Apple M3 Pro (18.0 GB)".into(),
            speed_gflops: cal::LAPTOP_GFLOPS,
            exec_overhead_s: cal::EDGE_EXEC_OVERHEAD_S,
            unit_overhead_s: cal::EDGE_UNIT_OVERHEAD_S,
            memory_bytes: cal::LAPTOP_MEM_BYTES,
            parallelism: cal::EDGE_PARALLELISM,
            load_fixed_s: cal::LAPTOP_LOAD.0,
            load_rate_mbps: cal::LAPTOP_LOAD.1,
            efficiency: KindEfficiency::default(),
        }
    }

    /// A 4 GB Jetson Nano; `name` distinguishes the paper's wireless
    /// Jetson A (the default requester) from the wired Jetson B.
    pub fn jetson(name: &str) -> Self {
        DeviceSpec {
            id: name.into(),
            description: "Jetson Nano P-3450, ARMv8 (4.1 GB)".into(),
            speed_gflops: cal::JETSON_GFLOPS,
            exec_overhead_s: cal::EDGE_EXEC_OVERHEAD_S,
            unit_overhead_s: cal::EDGE_UNIT_OVERHEAD_S,
            memory_bytes: cal::JETSON_MEM_BYTES,
            parallelism: cal::EDGE_PARALLELISM,
            load_fixed_s: cal::JETSON_LOAD.0,
            load_rate_mbps: cal::JETSON_LOAD.1,
            efficiency: KindEfficiency::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_models::catalog::Catalog;

    fn module(name: &str) -> ModuleSpec {
        Catalog::standard().get_by_name(name).unwrap().clone()
    }

    #[test]
    fn device_id_serializes_as_the_bare_name() {
        let id = DeviceId::new("jetson-a");
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "\"jetson-a\"");
        // As a map key it is the object key, unquoted further.
        let map = std::collections::BTreeMap::from([(id, 1u8)]);
        assert_eq!(
            serde_json::to_string(&map)
                .unwrap()
                .replace([' ', '\n'], ""),
            "{\"jetson-a\":1}"
        );
    }

    #[test]
    fn device_id_identity_is_the_name_not_the_allocation() {
        use std::collections::{BTreeMap, HashMap};
        use std::hash::{BuildHasher, RandomState};
        // Two separately built ids share no allocation.
        let a = DeviceId::new("laptop");
        let b = DeviceId::new(format!("lap{}", "top"));
        assert!(!std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let mut tree = BTreeMap::from([(a.clone(), 1)]);
        assert_eq!(tree.insert(b.clone(), 2), Some(1));
        let mut hashed = HashMap::from([(a.clone(), 1)]);
        assert_eq!(hashed.insert(b, 2), Some(1));
        // Order is the names', whatever order the ids were built in.
        let mut ids = [DeviceId::new("server"), DeviceId::new("desktop"), a];
        ids.sort();
        assert_eq!(
            ids.iter().map(DeviceId::as_str).collect::<Vec<_>>(),
            ["desktop", "laptop", "server"]
        );
        // A clone shares the name.
        assert!(std::ptr::eq(ids[0].as_str(), ids[0].clone().as_str()));
    }

    #[test]
    fn jetson_text_encoding_matches_footnote_two() {
        // Footnote 2: ~3 s on the laptop, ~43 s on a Jetson for CLIP
        // ViT-B/16 text encoding (101 Food-101 prompts).
        let text = module("text/CLIP-B-16");
        let jetson = DeviceSpec::jetson("jetson-a").compute_time(&text, 101.0);
        let laptop = DeviceSpec::laptop().compute_time(&text, 101.0);
        assert!((38.0..48.0).contains(&jetson), "jetson text = {jetson:.2}");
        assert!((2.0..3.5).contains(&laptop), "laptop text = {laptop:.2}");
    }

    #[test]
    fn gpu_server_is_overhead_bound_for_single_units() {
        let vision = module("vision/ViT-B-16");
        let server = DeviceSpec::server();
        let t = server.compute_time(&vision, 1.0);
        // FLOP time (~5 ms) is dwarfed by serving overhead (~0.38 s).
        assert!(t < 0.5, "{t}");
        assert!(t > 10.0 * (vision.gflops(1.0) / server.speed_gflops));
    }

    #[test]
    fn device_speed_ordering_matches_table_iii() {
        // Transformer (text) workloads order server < laptop < desktop <
        // jetson, matching Table VII's centralized column (the text batch
        // dominates CLIP retrieval latency).
        let text = module("text/CLIP-RN50x64");
        let t = |d: &DeviceSpec| d.compute_time(&text, 101.0);
        let server = DeviceSpec::server();
        let laptop = DeviceSpec::laptop();
        let desktop = DeviceSpec::desktop();
        let jetson = DeviceSpec::jetson("jetson-a");
        assert!(t(&server) < t(&laptop));
        assert!(t(&laptop) < t(&desktop));
        assert!(t(&desktop) < t(&jetson));
        assert!(t(&DeviceSpec::server()) < t(&DeviceSpec::server_without_gpu()));
        // On convolutional vision towers the desktop out-runs the laptop
        // (the Eq. 5 anchor for the paper's observed placement).
        let vision = module("vision/RN50x64");
        assert!(desktop.compute_time(&vision, 1.0) < laptop.compute_time(&vision, 1.0));
    }

    #[test]
    fn jetson_memory_excludes_rn50x16_but_not_rn50x4() {
        // Table VI: Jetson can run RN50x4 centralized but not RN50x16.
        let jetson = DeviceSpec::jetson("jetson-a");
        let small: u64 = [module("vision/RN50x4"), module("text/CLIP-RN50x4")]
            .iter()
            .map(|m| m.memory_bytes())
            .sum();
        let big: u64 = [module("vision/RN50x16"), module("text/CLIP-RN50x16")]
            .iter()
            .map(|m| m.memory_bytes())
            .sum();
        assert!(
            small <= jetson.usable_memory_bytes(),
            "RN50x4 must fit: {small}"
        );
        assert!(
            big > jetson.usable_memory_bytes(),
            "RN50x16 must not fit: {big}"
        );
    }

    #[test]
    fn load_times_match_table_vii_end_to_end_column() {
        // End-to-end minus inference: server ~11 s, desktop ~1.5 s,
        // laptop ~2.3 s, Jetson ~15.2 s for CLIP ViT-B/16 (496 MB).
        let vision = module("vision/ViT-B-16");
        let text = module("text/CLIP-B-16");
        let full = |d: &DeviceSpec| {
            d.load_time(&vision) + (text.weight_bytes() as f64 / 1.0e6) / d.load_rate_mbps
        };
        assert!((9.0..13.0).contains(&full(&DeviceSpec::server())));
        assert!((1.0..2.5).contains(&full(&DeviceSpec::desktop())));
        assert!((1.8..3.0).contains(&full(&DeviceSpec::laptop())));
        assert!((13.0..18.0).contains(&full(&DeviceSpec::jetson("jetson-a"))));
    }

    #[test]
    fn nonparametric_heads_load_instantly() {
        let head = module("head/cosine");
        assert_eq!(DeviceSpec::jetson("jetson-b").load_time(&head), 0.0);
    }

    #[test]
    fn server_parallelism_exceeds_edge() {
        assert_eq!(DeviceSpec::server().parallelism, 2);
        assert_eq!(DeviceSpec::laptop().parallelism, 1);
        assert_eq!(DeviceSpec::server_without_gpu().parallelism, 1);
    }
}
