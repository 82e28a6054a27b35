//! Module-level batch inference (Sec. VI-C "Multiple requests" and
//! footnote 4).
//!
//! The paper's answer to queuing on shared modules is batching: aggregate
//! requests that target the same module and run them in one pass. Its
//! footnote 4 measures LLaVA-Next-7B on an L40S at batch sizes 1/10/20 →
//! 1.28 / 4.90 / 9.16 s, i.e. near-linear with a fixed setup — which is
//! precisely the `exec_overhead + batch · marginal` form of the device
//! model.

use s2m3_models::module::ModuleSpec;
use s2m3_net::device::{DeviceSpec, KindEfficiency};

/// Latency of one batched execution of `module` on `device` with
/// `batch` items, each performing `units_per_item` work units.
pub fn batch_latency(
    device: &DeviceSpec,
    module: &ModuleSpec,
    batch: usize,
    units_per_item: f64,
) -> f64 {
    device.compute_time(module, batch as f64 * units_per_item)
}

/// Throughput (items/s) of batched execution.
pub fn batch_throughput(
    device: &DeviceSpec,
    module: &ModuleSpec,
    batch: usize,
    units_per_item: f64,
) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    batch as f64 / batch_latency(device, module, batch, units_per_item)
}

/// The L40S GPU of footnote 4, calibrated so LLaVA-Next-7B inference at
/// batch sizes 1/10/20 lands at ≈1.28/4.90/9.16 s with 128-token
/// generations.
pub fn l40s() -> DeviceSpec {
    DeviceSpec {
        id: "l40s".into(),
        description: "NVIDIA L40S (footnote-4 batching testbed)".into(),
        speed_gflops: 4460.0,
        exec_overhead_s: 0.88,
        unit_overhead_s: 0.0,
        memory_bytes: 48_000_000_000,
        parallelism: 2,
        load_fixed_s: 5.0,
        load_rate_mbps: 1200.0,
        efficiency: KindEfficiency::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_models::catalog::Catalog;

    #[test]
    fn footnote_four_batch_scaling() {
        let c = Catalog::standard();
        let vicuna = c.get_by_name("llm/Vicuna-7B").unwrap();
        let gpu = l40s();
        let t1 = batch_latency(&gpu, vicuna, 1, 128.0);
        let t10 = batch_latency(&gpu, vicuna, 10, 128.0);
        let t20 = batch_latency(&gpu, vicuna, 20, 128.0);
        assert!((1.0..1.6).contains(&t1), "b=1: {t1:.2}");
        assert!((4.0..5.8).contains(&t10), "b=10: {t10:.2}");
        assert!((7.5..10.5).contains(&t20), "b=20: {t20:.2}");
        // Batched is slightly slower per batch but much better per item.
        assert!(
            batch_throughput(&gpu, vicuna, 20, 128.0)
                > 2.0 * batch_throughput(&gpu, vicuna, 1, 128.0)
        );
    }

    #[test]
    fn zero_batch_throughput_is_zero() {
        let c = Catalog::standard();
        let vicuna = c.get_by_name("llm/Vicuna-7B").unwrap();
        assert_eq!(batch_throughput(&l40s(), vicuna, 0, 128.0), 0.0);
    }

    #[test]
    fn batching_amortizes_edge_overheads_too() {
        let c = Catalog::standard();
        let vision = c.get_by_name("vision/ViT-B-16").unwrap();
        let laptop = DeviceSpec::laptop();
        let per_item_b1 = batch_latency(&laptop, vision, 1, 1.0);
        let per_item_b8 = batch_latency(&laptop, vision, 8, 1.0) / 8.0;
        assert!(per_item_b8 < per_item_b1);
    }
}
