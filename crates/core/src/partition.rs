//! Intra-module partitioning fallback (Sec. V-B).
//!
//! > "If the module cannot be loaded on any devices, we can further apply
//! > compression or DNN/LLM partitioning techniques to make the modules
//! > more lightweight. After leveraging such techniques, we can search
//! > the devices for partitioned modules using our greedy placement."
//!
//! This module implements that escape hatch: a module that fits nowhere
//! (e.g. Vicuna-13B, 26 GB fp16, on an edge fleet whose largest budget is
//! 24 GB) is split into `k` pipeline shards of `1/k` the weights, placed
//! individually by the same greedy rule. A single request then traverses
//! the shards *sequentially* (pipeline stages), paying an inter-stage hop
//! for every activation handoff — which is exactly the transmission
//! overhead the paper attributes to intra-module approaches (Sec. II),
//! now quantifiable.

use s2m3_models::module::{ModuleId, ModuleKind, ModuleSpec};
use s2m3_net::device::DeviceId;

use crate::error::CoreError;
use crate::problem::{Instance, Placement, RequestProfile};
use crate::resolved::ResolvedInstance;

/// Maximum shards to try before declaring the instance hopeless.
pub const MAX_SHARDS: usize = 8;

/// Pipeline hops per processed work unit for a sharded *generative* module
/// (autoregressive decode ping-pongs activations between stages every
/// token); encoder shards hand off once per stage instead.
fn hops_per_unit(kind: ModuleKind) -> f64 {
    match kind {
        ModuleKind::LanguageModel => 1.0,
        _ => 0.0,
    }
}

/// Splits `module` into `k` pipeline shards.
///
/// Weights, FLOPs and activation footprints divide evenly; shard ids are
/// `"{base}#{i}/{k}"` so they remain stable sharing keys (two models
/// sharing a sharded LLM share every shard).
pub fn shard_module(module: &ModuleSpec, k: usize) -> Vec<ModuleSpec> {
    assert!(k >= 1, "shard count must be positive");
    (0..k)
        .map(|i| {
            let mut s = module.clone();
            s.id = ModuleId::new(format!("{}#{}/{}", module.id, i + 1, k));
            s.params = module.params / k as u64;
            s.gflops_per_unit = module.gflops_per_unit / k as f64;
            s
        })
        .collect()
}

/// One sharded module's placement: shards in pipeline order with their
/// devices.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The original (unsharded) module.
    pub base: ModuleSpec,
    /// Pipeline stages with their assigned devices, in order.
    pub stages: Vec<(ModuleSpec, DeviceId)>,
}

impl ShardPlan {
    /// Number of pipeline stages.
    pub fn shard_count(&self) -> usize {
        self.stages.len()
    }

    /// End-to-end time for this sharded module to process one request
    /// under `profile`: sum of stage compute plus inter-stage activation
    /// hops (per token for generative modules).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDevice`] if a stage device left the fleet.
    pub fn pipeline_latency(
        &self,
        instance: &Instance,
        profile: &RequestProfile,
    ) -> Result<f64, CoreError> {
        let units = profile.units(self.base.kind);
        let mut total = 0.0;
        for (shard, device) in &self.stages {
            total += instance.compute_time_for(shard, device, profile)?;
        }
        // Activation handoffs between consecutive stages.
        let act_bytes = (self.base.embed_dim.max(64) * 4) as u64;
        let per_unit = hops_per_unit(self.base.kind);
        for w in self.stages.windows(2) {
            let hop = instance
                .fleet()
                .topology()
                .transfer_time(&w[0].1, &w[1].1, act_bytes)
                .map_err(CoreError::UnknownDevice)?;
            // One traversal always happens; generative modules repeat it
            // per decoded unit.
            total += hop * (1.0 + per_unit * (units - 1.0).max(0.0));
        }
        Ok(total)
    }
}

/// Result of placement-with-partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedPlacement {
    /// Placement of all modules that fit whole.
    pub placement: Placement,
    /// Sharded modules (empty when everything fit).
    pub sharded: Vec<ShardPlan>,
}

/// Greedy placement with the Sec. V-B partitioning fallback: modules that
/// fit nowhere are split into 2, 3, … [`MAX_SHARDS`] pipeline shards until
/// every shard finds a device.
///
/// Shards are placed by the same completion-time rule as whole modules,
/// consecutive stages preferring low-latency pairs (each stage is scored
/// like a head: pure compute, Eq. 6 — stages never run in parallel with
/// one another).
///
/// # Errors
///
/// [`CoreError::Infeasible`] when even [`MAX_SHARDS`]-way sharding cannot
/// fit; [`CoreError::EmptyFleet`] on an empty fleet.
pub fn greedy_place_partitioned(instance: &Instance) -> Result<PartitionedPlacement, CoreError> {
    let resolved = ResolvedInstance::new(instance)?;
    let nd = resolved.device_count();

    // Classify modules: those that fit on at least one device go to the
    // ordinary greedy; the rest get sharded.
    let max_budget = (0..nd as u32)
        .map(|d| resolved.device_budget(d))
        .max()
        .unwrap_or(0);
    let (fitting, oversized): (Vec<u32>, Vec<u32>) =
        (0..resolved.module_count() as u32).partition(|&m| resolved.module_memory(m) <= max_budget);

    // Place the fitting modules with the shared greedy scoring loop
    // (Eqs. 5/6 in `placement::place_modules_resolved`), restricted to
    // this explicit module list.
    let mut remaining: Vec<u64> = (0..nd as u32).map(|d| resolved.device_budget(d)).collect();
    let mut placement = Placement::new();
    crate::placement::place_modules_resolved(&resolved, fitting, &mut remaining, &mut placement)?;

    // Shard the oversized modules, smallest shard count that fits. Shard
    // specs are synthesized on the fly (they are not interned), so this
    // cold fallback scores through the string-id API.
    let devices = instance.fleet().devices();
    let mut sharded = Vec::new();
    for mi in oversized {
        let m = resolved.module_spec(mi);
        let mut placed_plan: Option<ShardPlan> = None;
        'shards: for k in 2..=MAX_SHARDS {
            let shards = shard_module(m, k);
            // Tentative: place each shard on the fastest device with room
            // (pure compute score — stages are sequential).
            let mut trial_remaining = remaining.clone();
            let mut stages = Vec::with_capacity(k);
            for shard in &shards {
                let units = instance.placement_units(shard);
                let mut scored: Vec<(f64, u32)> = Vec::with_capacity(nd);
                for (di, d) in devices.iter().enumerate() {
                    scored.push((d.compute_time(shard, units), di as u32));
                }
                scored.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| resolved.device_rank(a.1).cmp(&resolved.device_rank(b.1)))
                });
                let need = shard.memory_bytes();
                let Some(&(_, n)) = scored
                    .iter()
                    .find(|&&(_, n)| need <= trial_remaining[n as usize])
                else {
                    continue 'shards;
                };
                trial_remaining[n as usize] -= need;
                stages.push((shard.clone(), resolved.device_name(n).clone()));
            }
            remaining = trial_remaining;
            placed_plan = Some(ShardPlan {
                base: m.clone(),
                stages,
            });
            break;
        }
        match placed_plan {
            Some(plan) => {
                for (shard, dev) in &plan.stages {
                    placement.place(shard.id.clone(), dev.clone());
                }
                sharded.push(plan);
            }
            None => {
                return Err(CoreError::Infeasible {
                    module: resolved.module_name(mi).clone(),
                    required_bytes: resolved.module_memory(mi) / MAX_SHARDS as u64,
                    best_remaining_bytes: remaining.iter().copied().max().unwrap_or(0),
                });
            }
        }
    }

    Ok(PartitionedPlacement { placement, sharded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_net::fleet::Fleet;

    #[test]
    fn sharding_divides_weights_and_flops() {
        let i = Instance::single_model("LLaVA-v1.5-13B", 1).unwrap();
        let llm = i
            .distinct_modules()
            .into_iter()
            .find(|m| m.kind == ModuleKind::LanguageModel)
            .unwrap()
            .clone();
        let shards = shard_module(&llm, 4);
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.params, llm.params / 4);
            assert!((s.gflops_per_unit - llm.gflops_per_unit / 4.0).abs() < 1e-9);
            assert!(s.id.as_str().contains('#'));
        }
        // Shard ids are distinct and deterministic.
        assert_ne!(shards[0].id, shards[1].id);
        assert_eq!(shard_module(&llm, 4)[2], shards[2]);
    }

    #[test]
    fn vicuna_13b_infeasible_whole_but_placeable_sharded() {
        // 26 GB fp16 exceeds every edge budget (desktop: 24 GB)...
        let i = Instance::single_model("LLaVA-v1.5-13B", 1).unwrap();
        assert!(matches!(
            crate::placement::greedy_place(&i),
            Err(CoreError::Infeasible { .. })
        ));
        // ...but the partitioning fallback shards it across devices.
        let pp = greedy_place_partitioned(&i).unwrap();
        assert!(!pp.sharded.is_empty());
        let plan = &pp.sharded[0];
        assert!(plan.base.id.as_str().contains("Vicuna-13B"));
        assert!(plan.shard_count() >= 2);
        // Stages span more than one device (no single device holds it).
        let devices: std::collections::BTreeSet<_> =
            plan.stages.iter().map(|(_, d)| d.clone()).collect();
        assert!(devices.len() >= 2, "stages on {devices:?}");
    }

    #[test]
    fn pipeline_latency_includes_per_token_hops() {
        let i = Instance::single_model("LLaVA-v1.5-13B", 1).unwrap();
        let pp = greedy_place_partitioned(&i).unwrap();
        let profile = i.deployments()[0].profile;
        let plan = &pp.sharded[0];
        let latency = plan.pipeline_latency(&i, &profile).unwrap();
        // Compute alone on the fastest single device would be:
        let whole = i
            .compute_time_for(&plan.base, &"laptop".into(), &profile)
            .unwrap_or(f64::INFINITY)
            .min(
                i.compute_time_for(&plan.base, &"desktop".into(), &profile)
                    .unwrap(),
            );
        // The pipeline pays hop overhead: strictly more than ideal
        // sharded compute, and more than a (hypothetical) whole placement
        // minus overheads would be.
        assert!(
            latency > 0.8 * whole,
            "latency {latency:.2} vs whole {whole:.2}"
        );
        // Per-token ping-pong across Wi-Fi should be visible (>0.3 s for
        // 128 tokens over multi-ms paths) whenever stages span devices.
        let spans_devices = plan.stages.windows(2).any(|w| w[0].1 != w[1].1);
        if spans_devices {
            assert!(
                latency > whole,
                "hops must add cost: {latency:.2} vs {whole:.2}"
            );
        }
    }

    #[test]
    fn no_sharding_when_everything_fits() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let pp = greedy_place_partitioned(&i).unwrap();
        assert!(pp.sharded.is_empty());
        assert_eq!(pp.placement.modules().count(), i.distinct_modules().len());
    }

    #[test]
    fn hopeless_instances_still_error() {
        // Two Jetsons (1.1 GB each): even 8-way Vicuna-13B shards
        // (3.25 GB each) cannot fit.
        let fleet = Fleet::standard_testbed()
            .restricted_to(&["jetson-a", "jetson-b"])
            .unwrap();
        let i = Instance::on_fleet(fleet, &[("LLaVA-v1.5-13B", 1)]).unwrap();
        assert!(matches!(
            greedy_place_partitioned(&i),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn sharded_placement_respects_memory() {
        let i = Instance::single_model("LLaVA-v1.5-13B", 1).unwrap();
        let pp = greedy_place_partitioned(&i).unwrap();
        // Validate budgets manually (validate() uses distinct_modules,
        // which does not know shard specs).
        let mut used: std::collections::BTreeMap<&str, u64> = Default::default();
        let specs: Vec<_> = i.distinct_modules().into_iter().cloned().collect();
        for (m, d) in pp.placement.iter() {
            let bytes = specs
                .iter()
                .find(|s| &s.id == m)
                .map(|s| s.memory_bytes())
                .or_else(|| {
                    pp.sharded
                        .iter()
                        .flat_map(|sp| &sp.stages)
                        .find_map(|(s, _)| (&s.id == m).then(|| s.memory_bytes()))
                })
                .unwrap();
            *used.entry(d.as_str()).or_default() += bytes;
        }
        for d in i.fleet().devices() {
            if let Some(bytes) = used.get(d.id.as_str()) {
                assert!(
                    *bytes <= d.usable_memory_bytes(),
                    "{}: {bytes} > {}",
                    d.id,
                    d.usable_memory_bytes()
                );
            }
        }
    }
}
