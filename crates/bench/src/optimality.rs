//! The §VI-A optimality experiment: greedy vs brute-force optimal over
//! 19 (benchmark, model) combinations × 5 perturbed trials = 95
//! instances. The paper reports the greedy optimal in 89/95 (93.7%).

use s2m3_core::objective::total_latency;
use s2m3_core::plan::Plan;
use s2m3_core::problem::Instance;
use s2m3_core::upper::optimal_placement;
use s2m3_net::fleet::Fleet;

use crate::perturb::perturbed_fleet;
use crate::table::Table;

/// Relative latency tolerance under which greedy counts as optimal.
/// The paper decides optimality from *measured* wall-clock averaged over
/// five noisy trials; with the ±10% run-to-run perturbation modeled in
/// [`crate::perturb`], a five-trial mean resolves differences down to
/// roughly 3–4% — gaps below that are indistinguishable from the optimum
/// on the real testbed (e.g. a 5 ms head-transfer difference on a 0.19 s
/// encoder-VQA request).
const OPT_TOLERANCE: f64 = 0.03;

/// The 19 (model, candidate-count, label) combinations: 5 retrieval
/// benchmarks × 2 CLIP towers, 3 VQA benchmarks × 2 LLaVA-family models,
/// MS COCO × 2 encoder-only models, and As-A × the tri-modal aligner.
fn combinations() -> Vec<(&'static str, usize, String)> {
    let mut out = Vec::new();
    for bench in [
        ("food101", 101),
        ("cifar10", 10),
        ("cifar100", 100),
        ("country211", 211),
        ("flowers102", 102),
    ] {
        for model in ["CLIP ViT-B/16", "CLIP ViT-L/14@336"] {
            out.push((model, bench.1, format!("{model} x {}", bench.0)));
        }
    }
    for bench in ["vqa-v2", "scienceqa", "textvqa"] {
        for model in ["Flint-v0.5-1B", "LLaVA-v1.5-7B"] {
            out.push((model, 1, format!("{model} x {bench}")));
        }
    }
    for model in ["Encoder-only VQA (Small)", "Encoder-only VQA (Large)"] {
        out.push((model, 1, format!("{model} x coco")));
    }
    out.push(("AlignBind-B", 16, "AlignBind-B x as-a".to_string()));
    out
}

/// Result of the sweep.
#[derive(Debug, Clone, PartialEq)]
struct OptimalityResult {
    /// Instances where greedy latency matches the brute-force optimum
    /// within [`OPT_TOLERANCE`].
    optimal: usize,
    /// Total instances evaluated.
    total: usize,
    /// Worst relative gap observed (greedy/optimal − 1).
    worst_gap: f64,
    /// Per-combination optimal counts (label, optimal-of-trials).
    per_combo: Vec<(String, usize)>,
}

impl OptimalityResult {
    /// Optimality rate in percent.
    fn rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.optimal as f64 / self.total as f64
    }
}

/// Runs the 19 × `trials` sweep.
///
/// Protocol (mirroring the paper's): placement and routing are decided
/// **once** from the profiled cost model — for both the greedy and the
/// brute-force Upper — and each trial then *evaluates* those fixed
/// decisions under perturbed runtime conditions (the measurement noise
/// of a real testbed). Greedy counts as optimal in a trial when its
/// evaluated latency is within [`OPT_TOLERANCE`] of the Upper plan's.
fn sweep(trials: usize) -> OptimalityResult {
    let base = Fleet::edge_testbed();
    let mut optimal = 0;
    let mut total = 0;
    let mut worst_gap = 0.0_f64;
    let mut per_combo = Vec::new();
    for (model, candidates, label) in combinations() {
        let Ok(base_instance) = Instance::on_fleet(base.clone(), &[(model, candidates)]) else {
            per_combo.push((label, 0));
            continue;
        };
        let Ok(request) = base_instance.request(0, model) else {
            per_combo.push((label, 0));
            continue;
        };
        // Decide both plans on the profiled (unperturbed) cost model.
        let Ok(greedy_plan) = Plan::greedy(&base_instance, vec![request.clone()]) else {
            per_combo.push((label, 0));
            continue;
        };
        let Ok(upper) = optimal_placement(&base_instance) else {
            per_combo.push((label, 0));
            continue;
        };
        let Ok(upper_plan) = Plan::route_all(
            &base_instance,
            upper.placement.clone(),
            vec![request.clone()],
        ) else {
            per_combo.push((label, 0));
            continue;
        };

        let mut combo_optimal = 0;
        for trial in 0..trials {
            let fleet = perturbed_fleet(&base, &format!("{label}/trial/{trial}"));
            let Ok(instance) = base_instance.with_fleet(fleet) else {
                continue;
            };
            let (Ok(g), Ok(o)) = (
                total_latency(&instance, &greedy_plan.routed[0].1, &request),
                total_latency(&instance, &upper_plan.routed[0].1, &request),
            ) else {
                continue;
            };
            total += 1;
            let gap = (g / o - 1.0).max(0.0);
            worst_gap = worst_gap.max(gap);
            if gap < OPT_TOLERANCE {
                optimal += 1;
                combo_optimal += 1;
            }
        }
        per_combo.push((label, combo_optimal));
    }
    OptimalityResult {
        optimal,
        total,
        worst_gap,
        per_combo,
    }
}

/// Regenerates the optimality claim as a table.
pub(crate) fn run() -> Table {
    let result = sweep(5);
    let mut t = Table::new(
        "§VI-A — greedy vs brute-force optimal placement (19 combos x 5 trials)",
        &["Combination", "Optimal trials"],
    );
    for (label, k) in &result.per_combo {
        t.push_row(vec![label.clone(), format!("{k}/5")]);
    }
    t.push_note(format!(
        "Greedy optimal in {}/{} instances ({:.1}%); worst relative gap {:.2}%. \
         Paper: 89/95 (93.7%).",
        result.optimal,
        result.total,
        result.rate(),
        result.worst_gap * 100.0
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_combinations() {
        assert_eq!(combinations().len(), 19);
    }

    #[test]
    fn greedy_matches_paper_optimality_rate() {
        // Two trials per combo keeps the test quick; the full 5-trial
        // sweep runs in the binary. The paper's rate is 93.7%.
        let r = sweep(2);
        assert_eq!(r.total, 38);
        assert!(
            r.rate() >= 85.0,
            "optimality rate {:.1}% (got {}/{})",
            r.rate(),
            r.optimal,
            r.total
        );
        assert!(r.worst_gap < 0.35, "worst gap {:.1}%", r.worst_gap * 100.0);
    }
}
