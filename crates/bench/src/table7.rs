//! Table VII: deployment comparison for CLIP ViT-B/16 — inference and
//! end-to-end (inference + model loading) latency.

use s2m3_baselines::ablations::{s2m3_latency, s2m3_no_parallel_latency};
use s2m3_baselines::centralized::{centralized_e2e, centralized_latency};
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_net::device::DeviceSpec;
use s2m3_net::fleet::Fleet;
use s2m3_sim::loading::loading_critical_path;

use crate::table::{fmt_params, fmt_secs, Table};

const MODEL: &str = "CLIP ViT-B/16";
const CANDIDATES: usize = 101;

/// A fleet whose server runs without its GPU (Table VII's second row).
fn cpu_server_fleet() -> Fleet {
    let base = Fleet::standard_testbed();
    let devices = base
        .devices()
        .iter()
        .map(|d| {
            if d.id.as_str() == "server" {
                DeviceSpec::server_without_gpu()
            } else {
                d.clone()
            }
        })
        .collect();
    Fleet::new(devices, base.topology().clone(), base.requester().clone()).expect("valid fleet")
}

/// Regenerates Table VII.
pub(crate) fn run() -> Table {
    let full = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
    let cpu = Instance::on_fleet(cpu_server_fleet(), &[(MODEL, CANDIDATES)]).unwrap();
    let edge = Instance::on_fleet(Fleet::edge_testbed(), &[(MODEL, CANDIDATES)]).unwrap();

    let mut t = Table::new(
        "Table VII — deployment comparison (CLIP ViT-B/16, Food-101 prompts)",
        &[
            "Deployment",
            "#Param/device",
            "Inference (s)",
            "End-to-End (s)",
        ],
    );

    let model = &full.deployment(MODEL).unwrap().model;
    let central_params = fmt_params(model.total_params());
    for (label, instance, device) in [
        ("Centralized Server", &full, "server"),
        ("Centralized Server (w/o GPU)", &cpu, "server"),
        ("Centralized Desktop", &full, "desktop"),
        ("Centralized Laptop", &full, "laptop"),
        ("Centralized Jetson", &full, "jetson-a"),
    ] {
        let inf = centralized_latency(instance, MODEL, device).ok();
        let e2e = centralized_e2e(instance, MODEL, device).ok();
        t.push_row(vec![
            label.to_string(),
            central_params.clone(),
            fmt_secs(inf),
            fmt_secs(e2e),
        ]);
    }

    // S2M3 rows on the edge fleet.
    let q = edge.request(0, MODEL).unwrap();
    let plan = Plan::greedy(&edge, vec![q]).unwrap();
    let split_params = fmt_params(model.max_module_params());
    let loading = loading_critical_path(&edge, &plan);

    let par = s2m3_latency(&edge, MODEL).ok();
    let seq = s2m3_no_parallel_latency(&edge, MODEL).ok();
    t.push_row(vec![
        "S2M3".into(),
        split_params.clone(),
        fmt_secs(par),
        fmt_secs(par.map(|v| v + loading)),
    ]);
    t.push_row(vec![
        "S2M3 (w/o Parallel Processing)".into(),
        split_params,
        fmt_secs(seq),
        fmt_secs(seq.map(|v| v + loading)),
    ]);

    t.push_note(
        "Paper: server 2.44/13.53, server-CPU 6.70/17.78, desktop 3.46/4.95, laptop 3.02/5.31, \
         Jetson 45.19/60.37, S2M3 2.48/4.76, S2M3-no-parallel 3.03/5.32.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_rows_and_orderings() {
        let t = run();
        assert_eq!(t.rows.len(), 7);
        let get = |label: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == label).unwrap()[col]
                .parse()
                .unwrap()
        };
        let server = get("Centralized Server", 2);
        let server_cpu = get("Centralized Server (w/o GPU)", 2);
        let desktop = get("Centralized Desktop", 2);
        let laptop = get("Centralized Laptop", 2);
        let jetson = get("Centralized Jetson", 2);
        let s2m3 = get("S2M3", 2);
        let s2m3_seq = get("S2M3 (w/o Parallel Processing)", 2);
        // Table VII orderings.
        assert!(server < laptop && laptop < desktop && desktop < server_cpu && server_cpu < jetson);
        assert!(s2m3 < s2m3_seq);
        assert!(
            s2m3 < laptop,
            "S2M3 {s2m3} must beat the best edge centralization {laptop}"
        );
    }

    #[test]
    fn e2e_exceeds_inference_everywhere() {
        let t = run();
        for r in &t.rows {
            let inf: f64 = r[2].parse().unwrap();
            let e2e: f64 = r[3].parse().unwrap();
            assert!(e2e > inf, "{}: {e2e} <= {inf}", r[0]);
        }
    }

    #[test]
    fn split_loading_beats_centralized_jetson_loading() {
        // Paper: S2M3 e2e overhead ≈ 2.3 s vs Jetson's ≈ 15 s.
        let t = run();
        let overhead = |label: &str| -> f64 {
            let r = t.rows.iter().find(|r| r[0] == label).unwrap();
            r[3].parse::<f64>().unwrap() - r[2].parse::<f64>().unwrap()
        };
        assert!(overhead("S2M3") < 4.0);
        assert!(overhead("Centralized Jetson") > 12.0);
        assert!(overhead("Centralized Server") > 8.0);
    }
}
