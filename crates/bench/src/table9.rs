//! Table IX: device availability — latency and per-device memory as the
//! available fleet varies (requester is always Jetson A).

use s2m3_baselines::centralized::centralized_latency;
use s2m3_core::objective::total_latency;
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_net::fleet::Fleet;

use crate::table::{fmt_params, fmt_secs, Table};

const MODEL: &str = "CLIP ViT-B/16";
const CANDIDATES: usize = 101;

/// S2M3 latency on a device subset (names per Table III shorthand).
fn s2m3_on(names: &[&str]) -> Option<f64> {
    let fleet = Fleet::standard_testbed().restricted_to(names).ok()?;
    let i = Instance::on_fleet(fleet, &[(MODEL, CANDIDATES)]).ok()?;
    let q = i.request(0, MODEL).ok()?;
    let plan = Plan::greedy(&i, vec![q.clone()]).ok()?;
    total_latency(&i, &plan.routed[0].1, &q).ok()
}

/// Regenerates Table IX.
pub(crate) fn run() -> Table {
    let full = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
    let model = &full.deployment(MODEL).unwrap().model;

    let mut t = Table::new(
        "Table IX — device availability (requester: Jetson A)",
        &["Deployment", "Devices", "Latency (s)", "#Param/device"],
    );
    let central = fmt_params(model.total_params());
    let split = fmt_params(model.max_module_params());

    t.push_row(vec![
        "Centralized (cloud)".into(),
        "S + J-A".into(),
        fmt_secs(centralized_latency(&full, MODEL, "server").ok()),
        central.clone(),
    ]);
    t.push_row(vec![
        "Centralized (local)".into(),
        "J-A".into(),
        fmt_secs(centralized_latency(&full, MODEL, "jetson-a").ok()),
        central,
    ]);
    for (label, names) in [
        ("S2M3", vec!["jetson-b", "jetson-a"]),
        ("S2M3", vec!["desktop", "laptop", "jetson-a"]),
        ("S2M3", vec!["desktop", "laptop", "jetson-b", "jetson-a"]),
        (
            "S2M3 (+ Server)",
            vec!["server", "desktop", "laptop", "jetson-b", "jetson-a"],
        ),
    ] {
        t.push_row(vec![
            label.into(),
            names
                .iter()
                .map(|n| shorthand(n))
                .collect::<Vec<_>>()
                .join(" + "),
            fmt_secs(s2m3_on(&names)),
            split.clone(),
        ]);
    }
    t.push_note(
        "Paper: cloud 2.44, local 45.19, two Jetsons 42.70, +D+L 2.49, full edge 2.48, \
         +server 1.74 (the GPU overlaps both encoders, beating the sequential cloud).",
    );
    t
}

fn shorthand(name: &str) -> &'static str {
    match name {
        "server" => "S",
        "desktop" => "D",
        "laptop" => "L",
        "jetson-b" => "J-B",
        "jetson-a" => "J-A",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows() {
        assert_eq!(run().rows.len(), 6);
    }

    #[test]
    fn two_jetsons_are_barely_better_than_one() {
        // Paper: 45.19 → 42.70 (parallelism helps a little even on two
        // slow devices).
        let full = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
        let local = centralized_latency(&full, MODEL, "jetson-a").unwrap();
        let two = s2m3_on(&["jetson-b", "jetson-a"]).unwrap();
        assert!(two < local, "two jetsons {two:.2} vs one {local:.2}");
        assert!(
            two > 0.8 * local,
            "gain should be modest: {two:.2} vs {local:.2}"
        );
    }

    #[test]
    fn adding_the_server_beats_the_cloud() {
        // Paper's headline Table IX result: S2M3+server (1.74) < cloud
        // (2.44), because S2M3 overlaps module executions on the GPU.
        let full = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
        let cloud = centralized_latency(&full, MODEL, "server").unwrap();
        let with_server =
            s2m3_on(&["server", "desktop", "laptop", "jetson-b", "jetson-a"]).unwrap();
        assert!(
            with_server < cloud,
            "S2M3+server {with_server:.2} must beat cloud {cloud:.2}"
        );
    }

    #[test]
    fn edge_fleets_land_in_paper_regime() {
        let three = s2m3_on(&["desktop", "laptop", "jetson-a"]).unwrap();
        let four = s2m3_on(&["desktop", "laptop", "jetson-b", "jetson-a"]).unwrap();
        // Paper: 2.49 / 2.48 — essentially identical.
        assert!((three - four).abs() < 0.3, "{three:.2} vs {four:.2}");
        assert!((1.5..3.5).contains(&four));
    }
}
