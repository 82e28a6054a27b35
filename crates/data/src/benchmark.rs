//! Benchmark definitions mirroring the paper's Sec. VI "Tasks and
//! benchmarks" list.

use s2m3_models::zoo::Task;

/// A synthetic benchmark: name, task family, class structure, and a
/// calibrated difficulty (per-sample noise level).
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Canonical name (doubles as the prototype seed namespace).
    pub name: String,
    /// Which task family evaluates on it.
    pub task: Task,
    /// Number of classes (or candidate answers).
    pub n_classes: usize,
    /// Per-sample feature-noise standard deviation. Calibrated per
    /// benchmark so measured zero-shot accuracy approximates the paper's
    /// reported column (see `table_viii`).
    pub noise: f32,
    /// Extra query-noise for VQA-style benchmarks (distorts the question
    /// channel instead of the image).
    pub query_noise: f32,
}

impl Benchmark {
    fn new(name: &str, task: Task, n_classes: usize, noise: f32, query_noise: f32) -> Self {
        Benchmark {
            name: name.to_string(),
            task,
            n_classes,
            noise,
            query_noise,
        }
    }

    /// Food-101 (image-text retrieval / classification), 101 classes.
    pub(crate) fn food101() -> Self {
        Self::new("food101", Task::ImageTextRetrieval, 101, 1.8, 0.0)
    }

    /// CIFAR-10, 10 classes — the easy benchmark.
    pub fn cifar10() -> Self {
        Self::new("cifar10", Task::ImageTextRetrieval, 10, 2.2, 0.0)
    }

    /// CIFAR-100, 100 classes.
    pub(crate) fn cifar100() -> Self {
        Self::new("cifar100", Task::ImageTextRetrieval, 100, 2.35, 0.0)
    }

    /// Country-211, 211 classes — the brutal one (paper: 22–35%).
    pub fn country211() -> Self {
        Self::new("country211", Task::ImageTextRetrieval, 211, 3.6, 0.0)
    }

    /// Flowers-102, 102 classes.
    pub(crate) fn flowers102() -> Self {
        Self::new("flowers102", Task::ImageTextRetrieval, 102, 2.3, 0.0)
    }

    /// MS COCO yes/no questions for encoder-only VQA, 2 classes.
    /// The namespace matches the classifier head id
    /// (`head/classifier-vqa-coco-s` → `vqa-coco-s`).
    pub(crate) fn coco_vqa() -> Self {
        Self::new("vqa-coco-s", Task::EncoderVqa, 2, 2.5, 0.0)
    }

    /// VQA-v2 for decoder-only VQA over the 32-answer space.
    pub fn vqa_v2() -> Self {
        Self::new("vqa-v2", Task::DecoderVqa, 32, 0.4, 1.9)
    }

    /// ScienceQA — harder reasoning, noisier questions.
    pub(crate) fn science_qa() -> Self {
        Self::new("scienceqa", Task::DecoderVqa, 32, 0.4, 2.35)
    }

    /// TextVQA — reading text in images; hardest of the three.
    pub(crate) fn text_vqa() -> Self {
        Self::new("textvqa", Task::DecoderVqa, 32, 0.4, 2.75)
    }

    /// AudioSet-style cross-modal alignment (the paper's As-A), 16
    /// classes.
    pub(crate) fn audio_set() -> Self {
        Self::new("as-a", Task::CrossModalAlignment, 16, 2.0, 0.0)
    }

    /// Food-101 as an image-classification benchmark (the paper's fifth
    /// task reuses Food-101 with a classifier head). The namespace
    /// matches `head/classifier-food101`.
    #[cfg(test)]
    pub(crate) fn food101_classification() -> Self {
        Self::new("food101", Task::ImageClassification, 101, 1.8, 0.0)
    }

    /// All ten benchmarks of Sec. VI.
    pub(crate) fn all() -> Vec<Benchmark> {
        vec![
            Self::food101(),
            Self::cifar10(),
            Self::cifar100(),
            Self::country211(),
            Self::flowers102(),
            Self::coco_vqa(),
            Self::vqa_v2(),
            Self::science_qa(),
            Self::text_vqa(),
            Self::audio_set(),
        ]
    }

    /// Looks a benchmark up by name (classification variant excluded —
    /// it shares the `food101` namespace).
    pub fn by_name(name: &str) -> Option<Benchmark> {
        Self::all().into_iter().find(|b| b.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_benchmarks_cover_five_tasks() {
        let all = Benchmark::all();
        assert_eq!(all.len(), 10);
        let tasks: std::collections::BTreeSet<_> = all.iter().map(|b| b.task).collect();
        assert!(tasks.len() >= 4);
    }

    #[test]
    fn class_counts_match_the_real_datasets() {
        assert_eq!(Benchmark::food101().n_classes, 101);
        assert_eq!(Benchmark::cifar10().n_classes, 10);
        assert_eq!(Benchmark::cifar100().n_classes, 100);
        assert_eq!(Benchmark::country211().n_classes, 211);
        assert_eq!(Benchmark::flowers102().n_classes, 102);
        assert_eq!(Benchmark::coco_vqa().n_classes, 2);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Benchmark::by_name("cifar10"), Some(Benchmark::cifar10()));
        assert!(Benchmark::by_name("imagenet").is_none());
    }

    #[test]
    fn country211_is_hardest_retrieval() {
        let c = Benchmark::country211();
        for b in [
            Benchmark::food101(),
            Benchmark::cifar10(),
            Benchmark::flowers102(),
        ] {
            assert!(c.noise > b.noise || c.n_classes > b.n_classes);
        }
    }
}
