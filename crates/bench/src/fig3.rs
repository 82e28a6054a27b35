//! Fig. 3: the inference timeline (model loading / transmission / image
//! encoding / text encoding / task head) for CLIP ViT-B/16, comparing
//! S2M3 against centralized cloud and local execution.

use s2m3_baselines::centralized::{centralized_e2e, centralized_latency};
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_net::fleet::Fleet;
use s2m3_sim::{simulate, SimConfig, SimReport};

use crate::table::{fmt_secs, Table};

const MODEL: &str = "CLIP ViT-B/16";
const CANDIDATES: usize = 101;

/// The simulated S2M3 timeline, ready for Gantt rendering: with model
/// loading, or serving only (models already loaded — the paper's
/// steady-state view where encoders visibly overlap).
fn timeline(include_loading: bool) -> SimReport {
    let edge = Instance::on_fleet(Fleet::edge_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
    let q = edge.request(0, MODEL).unwrap();
    let plan = Plan::greedy(&edge, vec![q]).unwrap();
    simulate(
        &edge,
        &plan,
        &SimConfig {
            include_loading,
            arrivals: None,
            max_batch: None,
        },
    )
    .unwrap()
}

/// Summary rows comparing the three deployments of Fig. 3, with the
/// per-phase Gantt as the table's figure.
pub(crate) fn run() -> Table {
    let full = Instance::on_fleet(Fleet::standard_testbed(), &[(MODEL, CANDIDATES)]).unwrap();
    let report = timeline(true);

    let mut t = Table::new(
        "Fig. 3 — inference timeline summary (CLIP ViT-B/16)",
        &["Deployment", "Loading (s)", "Serving (s)", "Total (s)"],
    );
    for (label, dev) in [
        ("Centralized Cloud", "server"),
        ("Centralized Local", "jetson-a"),
    ] {
        let inf = centralized_latency(&full, MODEL, dev).ok();
        let e2e = centralized_e2e(&full, MODEL, dev).ok();
        let load = match (inf, e2e) {
            (Some(i), Some(e)) => Some(e - i),
            _ => None,
        };
        t.push_row(vec![
            label.to_string(),
            fmt_secs(load),
            fmt_secs(inf),
            fmt_secs(e2e),
        ]);
    }
    let serving = report.makespan - report.loading_done;
    t.push_row(vec![
        "S2M3".into(),
        fmt_secs(Some(report.loading_done)),
        fmt_secs(Some(serving)),
        fmt_secs(Some(report.makespan)),
    ]);
    t.push_note(
        "Per-phase spans below; transmission and head processing are nearly invisible, \
         as in the paper's Fig. 3.",
    );

    t.figure = Some(report.render_gantt(90));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_sim::Phase;

    #[test]
    fn timeline_has_all_phases() {
        let r = timeline(true);
        let has = |f: fn(&Phase) -> bool| r.spans.iter().any(|s| f(&s.phase));
        assert!(has(|p| matches!(p, Phase::ModelLoading(_))));
        assert!(has(|p| matches!(p, Phase::InputTx(_))));
        assert!(has(|p| matches!(p, Phase::Encode(_))));
        assert!(has(|p| matches!(p, Phase::Head(_))));
    }

    #[test]
    fn encoders_overlap_in_time() {
        // The core of Fig. 3: image and text encoding run simultaneously
        // on different devices (steady state: models already loaded).
        let r = timeline(false);
        let encodes: Vec<_> = r
            .spans
            .iter()
            .filter(|s| matches!(s.phase, Phase::Encode(_)))
            .collect();
        assert_eq!(encodes.len(), 2);
        let (a, b) = (&encodes[0], &encodes[1]);
        assert_ne!(a.device, b.device);
        let overlap = a.start.max(b.start) < a.end.min(b.end);
        assert!(overlap, "encoder spans must overlap: {a:?} vs {b:?}");
    }

    #[test]
    fn transmission_is_nearly_invisible() {
        let r = timeline(false);
        let tx_total: f64 = r
            .spans
            .iter()
            .filter(|s| matches!(s.phase, Phase::InputTx(_) | Phase::OutputTx(_)))
            .map(|s| s.end - s.start)
            .sum();
        assert!(tx_total < 0.15, "transmission total {tx_total:.3}");
    }

    #[test]
    fn summary_table_and_gantt_render() {
        let t = run();
        assert_eq!(t.rows.len(), 3);
        let gantt = t.figure.unwrap();
        assert!(gantt.contains("legend"));
        assert!(gantt.contains('E'));
    }
}
