//! Footnote 4: module-level batch inference scaling (LLaVA-Next-7B on an
//! L40S at batch sizes 1/10/20), the paper's answer to shared-module
//! queuing (Sec. VI-C).

use s2m3_models::catalog::Catalog;
use s2m3_sim::batching::{batch_latency, batch_throughput, l40s};

use crate::table::Table;

/// Tokens per generated answer in the footnote's setting.
const TOKENS: f64 = 128.0;

/// Regenerates the footnote-4 batch-scaling measurement.
pub(crate) fn run() -> Table {
    let catalog = Catalog::standard();
    let vicuna = catalog
        .get_by_name("llm/Vicuna-7B")
        .expect("catalog LLM")
        .clone();
    let gpu = l40s();
    let mut t = Table::new(
        "Footnote 4 — batch inference scaling (LLaVA-Next-7B on L40S)",
        &[
            "Batch size",
            "Latency (s)",
            "Paper (s)",
            "Throughput (req/s)",
        ],
    );
    for (batch, paper) in [(1usize, 1.28), (10, 4.90), (20, 9.16)] {
        let lat = batch_latency(&gpu, &vicuna, batch, TOKENS);
        let thr = batch_throughput(&gpu, &vicuna, batch, TOKENS);
        t.push_row(vec![
            batch.to_string(),
            format!("{lat:.2}"),
            format!("{paper:.2}"),
            format!("{thr:.2}"),
        ]);
    }
    t.push_note(
        "Near-linear latency in batch size with a fixed setup cost: batching amortizes the \
         per-execution overhead, which is how module-level batching absorbs the Table X \
         queuing delay.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_batch_sizes_tracking_paper() {
        let t = run();
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            let measured: f64 = r[1].parse().unwrap();
            let paper: f64 = r[2].parse().unwrap();
            assert!(
                (measured - paper).abs() / paper < 0.25,
                "batch {}: measured {measured} vs paper {paper}",
                r[0]
            );
        }
    }

    #[test]
    fn throughput_rises_with_batch() {
        let t = run();
        let thr: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(thr[0] < thr[1] && thr[1] < thr[2]);
    }
}
