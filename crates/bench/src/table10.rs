//! Table X: multi-task deployment — cumulative parameters and burst
//! latency with vs without module sharing, as tasks are added one by one.

use s2m3_baselines::ablations::{dedicated_burst, shared_burst};
use s2m3_core::problem::Instance;
use s2m3_core::sharing::SharingReport;
use s2m3_net::fleet::Fleet;

use crate::table::{fmt_params, fmt_secs, Table};

/// The task-addition order of Table X.
fn task_sequence() -> Vec<(&'static str, usize)> {
    vec![
        ("CLIP ViT-B/16", 101),
        ("Encoder-only VQA (Small)", 1),
        ("AlignBind-B", 16),
        ("CLIP-Classifier Food-101", 0),
    ]
}

/// Instance with the first `k` tasks deployed.
fn instance_with(k: usize) -> Instance {
    let seq = task_sequence();
    Instance::on_fleet(Fleet::edge_testbed(), &seq[..k]).unwrap()
}

/// Regenerates Table X.
pub(crate) fn run() -> Table {
    let mut t = Table::new(
        "Table X — multi-task sharing (simultaneous requests from all deployed tasks)",
        &[
            "Tasks",
            "#Param w/o Sharing",
            "#Param w/ Sharing",
            "Latency w/o Sharing (s)",
            "Latency w/ Sharing (s)",
        ],
    );
    let labels = [
        "Retrieval",
        "+ Encoder VQA",
        "+ Alignment",
        "+ Classification",
    ];
    for k in 1..=4 {
        let i = instance_with(k);
        let report = SharingReport::for_instance(&i);
        let last = report.rows.last().unwrap();
        let shared = shared_burst(&i).ok();
        let dedicated = dedicated_burst(&i).ok();
        t.push_row(vec![
            labels[k - 1].to_string(),
            fmt_params(last.cumulative_dedicated_params),
            fmt_params(last.cumulative_shared_params),
            fmt_secs(dedicated.as_ref().map(|r| r.max_latency())),
            fmt_secs(shared.as_ref().map(|r| r.max_latency())),
        ]);
    }
    t.push_note(
        "Paper: params 124M→248M→457M→543M without sharing vs 124M→124M→209M→209M with; \
         latency 2.48/2.48/3.73/3.73 vs 2.48/2.50/4.87/4.97 — sharing saves up to 61.5% \
         memory at the price of queuing on shared modules.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_progression_rows() {
        assert_eq!(run().rows.len(), 4);
    }

    #[test]
    fn params_match_table_x_exactly() {
        let t = run();
        let col = |r: usize, c: usize| t.rows[r][c].clone();
        assert_eq!(col(0, 1), "124M");
        assert_eq!(col(1, 1), "248M");
        assert_eq!(col(2, 1), "457M");
        assert_eq!(col(3, 1), "543M");
        assert_eq!(col(0, 2), "124M");
        assert_eq!(col(1, 2), "124M");
        assert_eq!(col(2, 2), "209M");
        assert_eq!(col(3, 2), "209M");
    }

    #[test]
    fn sharing_latency_penalty_appears_with_four_tasks() {
        // Paper: 3.73 (w/o) vs 4.97 (w/) at four tasks.
        let i = instance_with(4);
        let shared = shared_burst(&i).unwrap().max_latency();
        let dedicated = dedicated_burst(&i).unwrap().max_latency();
        assert!(
            shared >= dedicated,
            "shared {shared:.2} vs dedicated {dedicated:.2}"
        );
    }

    #[test]
    fn single_task_identical_either_way() {
        let i = instance_with(1);
        let shared = shared_burst(&i).unwrap().max_latency();
        let dedicated = dedicated_burst(&i).unwrap().max_latency();
        assert!((shared - dedicated).abs() < 0.05);
    }
}
