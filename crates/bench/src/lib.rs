//! # s2m3-bench
//!
//! The experiment harness: one module per table or figure of the
//! paper's evaluation section (and per extension beyond it), each a row
//! of [`EXPERIMENTS`], which the `experiments` binary runs.

mod ablations;
mod batching;
mod churn;
mod fig3;
mod load_sweep;
mod optimality;
mod perturb;
mod scalability;
mod sweep;
mod table;
mod table10;
mod table11;
mod table6;
mod table7;
mod table8;
mod table9;

pub use table::Table;

/// One artifact the harness regenerates: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The name the `experiments` binary takes on its command line: the
    /// name of the module that implements it.
    pub name: &'static str,
    /// The paper artifact (or extension) it reproduces.
    pub artifact: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Table,
}

/// One [`EXPERIMENTS`] row, named after its module.
macro_rules! row {
    ($module:ident, $artifact:literal) => {
        Experiment {
            name: stringify!($module),
            artifact: $artifact,
            run: $module::run,
        }
    };
}

/// Every experiment, in the order the `experiments` binary runs them
/// and writes `experiments_measured.md`.
pub const EXPERIMENTS: &[Experiment] = &[
    row!(table6, "Table VI: cost & latency per architecture"),
    row!(table7, "Table VII: deployment comparison (+ loading)"),
    row!(fig3, "Fig. 3: inference timeline (ASCII Gantt)"),
    row!(table8, "Table VIII: zero-shot accuracy"),
    row!(table9, "Table IX: device availability"),
    row!(table10, "Table X: multi-task sharing"),
    row!(table11, "Table XI: baseline comparison"),
    row!(optimality, "Sec. VI-A: greedy vs brute force (19x5)"),
    row!(batching, "footnote 4: batch scaling"),
    row!(ablations, "mechanism ablations"),
    row!(load_sweep, "queuing knee under Poisson load"),
    row!(scalability, "placement latency vs fleet size"),
    row!(churn, "serving SLOs under fleet churn"),
    row!(sweep, "Monte Carlo capacity frontier (all cores)"),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
