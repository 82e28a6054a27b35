//! Multi-task sharing accounting (Sec. IV-B / Table X).

use std::collections::BTreeSet;

use s2m3_models::module::ModuleId;

use crate::problem::Instance;

/// One row of the sharing progression: cumulative deployment cost after
/// each task is added, with and without module sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingRow {
    /// The model added at this step.
    pub model: String,
    /// Parameters this step *added* under sharing (only uncommon modules).
    pub added_shared_params: u64,
    /// Cumulative parameters with sharing (`O(c · r)` of Sec. IV-B).
    pub cumulative_shared_params: u64,
    /// Cumulative parameters without sharing (`O(|M| · r)`).
    pub cumulative_dedicated_params: u64,
}

/// The full progression over an instance's deployments, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingReport {
    /// One row per deployed model, in deployment order.
    pub rows: Vec<SharingRow>,
}

impl SharingReport {
    /// Builds the progression for `instance`'s deployment order.
    pub fn for_instance(instance: &Instance) -> Self {
        let mut seen: BTreeSet<ModuleId> = BTreeSet::new();
        let mut shared = 0u64;
        let mut dedicated = 0u64;
        let mut rows = Vec::new();
        for d in instance.deployments() {
            let mut added = 0u64;
            for m in d.model.modules() {
                if seen.insert(m.id.clone()) {
                    added += m.params;
                }
                dedicated += m.params;
            }
            shared += added;
            rows.push(SharingRow {
                model: d.model.name.clone(),
                added_shared_params: added,
                cumulative_shared_params: shared,
                cumulative_dedicated_params: dedicated,
            });
        }
        SharingReport { rows }
    }

    /// Final memory saving of sharing vs dedicated deployment, percent.
    pub fn savings_percent(&self) -> f64 {
        match self.rows.last() {
            Some(last) if last.cumulative_dedicated_params > 0 => {
                100.0
                    * (1.0
                        - last.cumulative_shared_params as f64
                            / last.cumulative_dedicated_params as f64)
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_net::fleet::Fleet;

    fn table_x_instance() -> Instance {
        Instance::on_fleet(
            Fleet::edge_testbed(),
            &[
                ("CLIP ViT-B/16", 101),
                ("Encoder-only VQA (Small)", 1),
                ("AlignBind-B", 16),
                ("CLIP-Classifier Food-101", 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn progression_matches_table_x() {
        let r = SharingReport::for_instance(&table_x_instance());
        let shared_m: Vec<u64> = r
            .rows
            .iter()
            .map(|row| row.cumulative_shared_params / 1_000_000)
            .collect();
        let dedicated_m: Vec<u64> = r
            .rows
            .iter()
            .map(|row| row.cumulative_dedicated_params / 1_000_000)
            .collect();
        assert_eq!(shared_m, vec![124, 124, 209, 209]);
        assert_eq!(dedicated_m, vec![124, 248, 457, 543]);
    }

    #[test]
    fn savings_match_paper_up_to_62_percent() {
        let r = SharingReport::for_instance(&table_x_instance());
        let s = r.savings_percent();
        assert!((58.0..64.0).contains(&s), "savings {s:.1}%");
    }

    #[test]
    fn single_model_has_no_savings() {
        let i = Instance::single_model("CLIP ViT-B/16", 101).unwrap();
        let r = SharingReport::for_instance(&i);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.savings_percent(), 0.0);
        assert_eq!(
            r.rows[0].cumulative_shared_params,
            r.rows[0].cumulative_dedicated_params
        );
    }

    #[test]
    fn dedicated_instance_shares_nothing() {
        let r = SharingReport::for_instance(&table_x_instance().dedicated());
        let last = r.rows.last().unwrap();
        assert_eq!(
            last.cumulative_shared_params,
            last.cumulative_dedicated_params
        );
        assert_eq!(r.savings_percent(), 0.0);
    }
}
