//! The Table VIII reference grid: which (model, benchmark) pairs the
//! paper reports, with the paper's S2M3 and "Reported" accuracy columns.

use crate::benchmark::Benchmark;

/// One row of Table VIII.
#[derive(Debug, Clone, PartialEq)]
pub struct TableViiiRow {
    /// Model name (standard-zoo key).
    pub model: &'static str,
    /// Benchmark name.
    pub benchmark: &'static str,
    /// The paper's measured S2M3 accuracy, %.
    pub paper_s2m3: f64,
    /// The originally reported accuracy of the pretrained model, % (None
    /// where the paper shows "–").
    pub reported: Option<f64>,
}

/// All sixteen rows of Table VIII.
pub fn rows() -> Vec<TableViiiRow> {
    let r = |model, benchmark, paper_s2m3, reported| TableViiiRow {
        model,
        benchmark,
        paper_s2m3,
        reported,
    };
    vec![
        r("CLIP ViT-B/16", "food101", 87.7, Some(89.2)),
        r("CLIP ViT-B/16", "cifar10", 90.8, Some(91.6)),
        r("CLIP ViT-B/16", "cifar100", 66.9, Some(68.7)),
        r("CLIP ViT-B/16", "country211", 22.4, Some(23.3)),
        r("CLIP ViT-B/16", "flowers102", 71.0, Some(70.4)),
        r("CLIP ViT-L/14@336", "food101", 93.2, Some(93.8)),
        r("CLIP ViT-L/14@336", "cifar10", 94.9, Some(95.7)),
        r("CLIP ViT-L/14@336", "cifar100", 74.3, Some(77.5)),
        r("CLIP ViT-L/14@336", "country211", 33.9, Some(34.9)),
        r("CLIP ViT-L/14@336", "flowers102", 77.1, Some(78.3)),
        r("Flint-v0.5-1B", "vqa-v2", 70.2, None),
        r("Flint-v0.5-1B", "scienceqa", 41.2, None),
        r("Flint-v0.5-1B", "textvqa", 35.6, None),
        r("LLaVA-v1.5-7B", "vqa-v2", 78.1, Some(78.5)),
        r("LLaVA-v1.5-7B", "scienceqa", 69.4, Some(70.4)),
        r("LLaVA-v1.5-7B", "textvqa", 57.3, None),
    ]
}

/// Resolves a row's benchmark definition.
pub fn benchmark_for(row: &TableViiiRow) -> Benchmark {
    Benchmark::by_name(row.benchmark).expect("table rows reference known benchmarks")
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_models::zoo::Zoo;

    #[test]
    fn sixteen_rows_all_resolvable() {
        let zoo = Zoo::standard();
        let rows = rows();
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert!(
                zoo.model(row.model).is_some(),
                "unknown model {}",
                row.model
            );
            let _ = benchmark_for(row);
        }
    }

    #[test]
    fn paper_accuracy_ordering_is_consistent() {
        // ViT-L beats ViT-B on every shared benchmark in the paper.
        let rows = rows();
        for bench in ["food101", "cifar10", "cifar100", "country211", "flowers102"] {
            let b = rows
                .iter()
                .find(|r| r.model == "CLIP ViT-B/16" && r.benchmark == bench)
                .unwrap();
            let l = rows
                .iter()
                .find(|r| r.model == "CLIP ViT-L/14@336" && r.benchmark == bench)
                .unwrap();
            assert!(l.paper_s2m3 > b.paper_s2m3);
        }
    }
}
