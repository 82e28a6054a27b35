//! Design-choice ablations beyond the paper's printed tables: each row
//! isolates one S2M3 mechanism (replication, batching, partitioning,
//! energy) and quantifies it on the standard workloads.

use s2m3_core::partition::greedy_place_partitioned;
use s2m3_core::placement::{greedy_place_with, PlacementOptions};
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_core::routing::route_requests_balanced;
use s2m3_net::fleet::Fleet;
use s2m3_sim::energy::{default_profiles, energy};
use s2m3_sim::{simulate, SimConfig};

use crate::table::{fmt_secs, Table};

const MODEL: &str = "CLIP ViT-B/16";
const CANDIDATES: usize = 101;
const BURST: usize = 8;

fn burst_plan(replicate: bool) -> (Instance, Plan) {
    let i = Instance::single_model(MODEL, CANDIDATES).unwrap();
    let requests: Vec<_> = (0..BURST as u64)
        .map(|k| i.request(k, MODEL).unwrap())
        .collect();
    let plan = Plan::greedy_with(&i, requests, PlacementOptions { replicate }).unwrap();
    (i, plan)
}

/// Replication ablation: burst makespan with and without leftover-memory
/// replication (Sec. V-B's final step). Replicas only matter with
/// load-aware routing, so the replicated case routes with
/// [`route_requests_balanced`].
fn replication_gain() -> (f64, f64) {
    let (i, plain) = burst_plan(false);
    let a = simulate(&i, &plain, &SimConfig::default())
        .unwrap()
        .makespan;

    let replicated_placement = greedy_place_with(&i, PlacementOptions { replicate: true }).unwrap();
    let requests: Vec<_> = (0..BURST as u64)
        .map(|k| i.request(k, MODEL).unwrap())
        .collect();
    let routes = route_requests_balanced(&i, &replicated_placement, &requests).unwrap();
    let plan = Plan {
        placement: replicated_placement,
        routed: requests.into_iter().zip(routes).collect(),
    };
    let b = simulate(&i, &plan, &SimConfig::default()).unwrap().makespan;
    (a, b)
}

/// Batching ablation: burst makespan with and without module-level batch
/// aggregation (Sec. VI-C).
fn batching_gain() -> (f64, f64) {
    let (i, plan) = burst_plan(false);
    let plain = simulate(&i, &plan, &SimConfig::default()).unwrap().makespan;
    let batched = simulate(
        &i,
        &plan,
        &SimConfig {
            max_batch: Some(BURST),
            ..SimConfig::default()
        },
    )
    .unwrap()
    .makespan;
    (plain, batched)
}

/// Partitioning ablation: LLaVA-v1.5-13B is infeasible whole on the edge
/// fleet; the Sec. V-B fallback shards its LLM into pipeline stages.
/// Returns (shard count, pipelined head latency).
fn partitioning_result() -> (usize, f64) {
    let i = Instance::single_model("LLaVA-v1.5-13B", 1).unwrap();
    let pp = greedy_place_partitioned(&i).unwrap();
    let plan = &pp.sharded[0];
    let profile = i.deployments()[0].profile;
    (
        plan.shard_count(),
        plan.pipeline_latency(&i, &profile).unwrap(),
    )
}

/// Energy ablation: marginal joules per request, edge S2M3 vs the
/// centralized GPU server (the paper's future-work metric).
fn energy_comparison() -> (f64, f64) {
    let i = Instance::single_model(MODEL, CANDIDATES).unwrap();
    let q = i.request(0, MODEL).unwrap();
    let plan = Plan::greedy(&i, vec![q]).unwrap();
    let report = simulate(&i, &plan, &SimConfig::default()).unwrap();
    let edge = energy(&report, &default_profiles()).marginal_j();

    // Centralized server: active draw over the cloud inference time.
    let full = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
    let cloud_latency =
        s2m3_baselines::centralized::centralized_latency(&full, MODEL, "server").unwrap();
    let server = default_profiles()[&"server".into()];
    let cloud = (server.active_w - server.idle_w) * cloud_latency;
    (edge, cloud)
}

/// Regenerates the ablation table.
pub(crate) fn run() -> Table {
    let mut t = Table::new(
        "Ablations — isolating each S2M3 mechanism",
        &["Mechanism", "Without", "With", "Effect"],
    );
    let (r0, r1) = replication_gain();
    t.push_row(vec![
        format!("Replication ({BURST}-request burst makespan, s)"),
        fmt_secs(Some(r0)),
        fmt_secs(Some(r1)),
        format!("{:+.1}%", 100.0 * (r1 / r0 - 1.0)),
    ]);
    let (b0, b1) = batching_gain();
    t.push_row(vec![
        format!("Module-level batching ({BURST}-request burst makespan, s)"),
        fmt_secs(Some(b0)),
        fmt_secs(Some(b1)),
        format!("{:+.1}%", 100.0 * (b1 / b0 - 1.0)),
    ]);
    let (shards, latency) = partitioning_result();
    t.push_row(vec![
        "LLM partitioning (LLaVA-13B on edge)".into(),
        "infeasible".into(),
        format!("{shards}-way, {latency:.2} s"),
        "feasible".into(),
    ]);
    let (edge_j, cloud_j) = energy_comparison();
    t.push_row(vec![
        "Marginal energy per request (J)".into(),
        format!("cloud {cloud_j:.0}"),
        format!("edge {edge_j:.0}"),
        format!("{:+.1}%", 100.0 * (edge_j / cloud_j - 1.0)),
    ]);
    t.push_note(
        "Replication and batching act on queuing (multi-request bursts); partitioning is the \
         Sec. V-B fallback for modules that fit nowhere; energy is the Sec. VII future-work \
         metric (edge inference trades latency for a large energy saving).",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_strictly_helps_bursts() {
        let (without, with) = replication_gain();
        assert!(with < without, "replicated {with:.2} vs plain {without:.2}");
    }

    #[test]
    fn batching_strictly_helps_bursts() {
        let (without, with) = batching_gain();
        assert!(with < without, "batched {with:.2} vs plain {without:.2}");
    }

    #[test]
    fn partitioning_makes_13b_feasible_at_sane_latency() {
        let (shards, latency) = partitioning_result();
        assert!(shards >= 2);
        assert!(
            latency.is_finite() && latency > 1.0 && latency < 120.0,
            "{latency}"
        );
    }

    #[test]
    fn edge_energy_beats_cloud_energy() {
        let (edge, cloud) = energy_comparison();
        assert!(edge < cloud, "edge {edge:.0} J vs cloud {cloud:.0} J");
    }
}
