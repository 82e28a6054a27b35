//! Dataset synthesis: class-structured samples around seeded prototypes.

use s2m3_models::exec::{answer_prototype, class_prototype};
use s2m3_models::input::{Modality, ModalityInput, RAW_FEATURE_DIM};
use s2m3_models::zoo::Task;
use s2m3_tensor::{ops, Matrix};

use crate::benchmark::Benchmark;

/// One evaluation sample: modality payloads, optional raw query, and the
/// ground-truth label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// Inputs for the model's encoders.
    pub modalities: Vec<ModalityInput>,
    /// Raw question for generative heads.
    pub query: Option<ModalityInput>,
    /// Ground-truth class / answer index.
    pub label: usize,
}

impl LabeledSample {
    /// The payload for a given modality, if present.
    pub(crate) fn modality(&self, m: Modality) -> Option<&ModalityInput> {
        self.modalities.iter().find(|i| i.modality == m)
    }
}

/// A generated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The benchmark this dataset realizes.
    pub benchmark: Benchmark,
    /// Evaluation samples.
    pub samples: Vec<LabeledSample>,
}

fn noisy(proto: &Matrix, noise: f32, seed: &str) -> Matrix {
    let n = Matrix::seeded_gaussian(seed, proto.rows(), proto.cols(), noise);
    ops::add(proto, &n).expect("prototype and noise share shape")
}

/// The candidate-prompt matrix for a benchmark: one clean class prototype
/// per row (what zero-shot retrieval feeds the text encoder).
pub(crate) fn candidate_prompts(benchmark: &Benchmark) -> Matrix {
    let mut m = Matrix::zeros(benchmark.n_classes, RAW_FEATURE_DIM);
    for c in 0..benchmark.n_classes {
        let p = class_prototype(&benchmark.name, c);
        m.row_mut(c)
            .expect("row in range")
            .copy_from_slice(p.row(0).expect("prototype row"));
    }
    m
}

impl Dataset {
    /// Generates `n_samples` deterministic samples (labels round-robin
    /// over classes, per-sample seeded noise).
    pub fn generate(benchmark: &Benchmark, n_samples: usize) -> Self {
        let mut samples = Vec::with_capacity(n_samples);
        for i in 0..n_samples {
            let label = i % benchmark.n_classes;
            samples.push(Self::sample(benchmark, i as u64, label));
        }
        Dataset {
            benchmark: benchmark.clone(),
            samples,
        }
    }

    /// Generates the `i`-th sample with a chosen label.
    pub(crate) fn sample(benchmark: &Benchmark, i: u64, label: usize) -> LabeledSample {
        let b = benchmark;
        match b.task {
            Task::ImageTextRetrieval | Task::ImageClassification => {
                let proto = class_prototype(&b.name, label);
                let image = noisy(&proto, b.noise, &format!("{}/img/{i}", b.name));
                let mut modalities = vec![ModalityInput::with_content(Modality::Image, image)];
                if b.task == Task::ImageTextRetrieval {
                    modalities.push(ModalityInput::with_content(
                        Modality::Text,
                        candidate_prompts(b),
                    ));
                }
                LabeledSample {
                    modalities,
                    query: None,
                    label,
                }
            }
            Task::EncoderVqa => {
                // Image and question both carry the class signal.
                let proto = class_prototype(&b.name, label);
                let image = noisy(&proto, b.noise, &format!("{}/img/{i}", b.name));
                let question = noisy(&proto, b.noise, &format!("{}/q/{i}", b.name));
                LabeledSample {
                    modalities: vec![
                        ModalityInput::with_content(Modality::Image, image),
                        ModalityInput::with_content(Modality::Text, question),
                    ],
                    query: None,
                    label,
                }
            }
            Task::DecoderVqa | Task::ImageCaptioning => {
                // The question aligns with an answer prototype; the image
                // is scene context. Difficulty lives in query_noise.
                let ans = answer_prototype(label);
                let question = noisy(&ans, b.query_noise, &format!("{}/q/{i}", b.name));
                let scene = Matrix::seeded_gaussian(
                    &format!("{}/scene/{i}", b.name),
                    1,
                    RAW_FEATURE_DIM,
                    1.0,
                );
                LabeledSample {
                    modalities: vec![ModalityInput::with_content(Modality::Image, scene)],
                    query: Some(ModalityInput::with_content(Modality::Text, question)),
                    label,
                }
            }
            Task::CrossModalAlignment => {
                let proto = class_prototype(&b.name, label);
                let image = noisy(&proto, b.noise, &format!("{}/img/{i}", b.name));
                let audio = noisy(&proto, b.noise, &format!("{}/aud/{i}", b.name));
                LabeledSample {
                    modalities: vec![
                        ModalityInput::with_content(Modality::Image, image),
                        ModalityInput::with_content(Modality::Text, candidate_prompts(b)),
                        ModalityInput::with_content(Modality::Audio, audio),
                    ],
                    query: None,
                    label,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let b = Benchmark::cifar10();
        assert_eq!(Dataset::generate(&b, 20), Dataset::generate(&b, 20));
    }

    #[test]
    fn labels_round_robin_over_classes() {
        let b = Benchmark::cifar10();
        let d = Dataset::generate(&b, 25);
        assert_eq!(d.samples[0].label, 0);
        assert_eq!(d.samples[9].label, 9);
        assert_eq!(d.samples[10].label, 0);
    }

    #[test]
    fn retrieval_samples_carry_image_and_prompts() {
        let b = Benchmark::food101();
        let s = Dataset::sample(&b, 0, 42);
        assert!(s.modality(Modality::Image).is_some());
        let text = s.modality(Modality::Text).unwrap();
        assert_eq!(text.content.rows(), 101);
        assert!(s.query.is_none());
    }

    #[test]
    fn decoder_vqa_samples_carry_query() {
        let b = Benchmark::vqa_v2();
        let s = Dataset::sample(&b, 3, 7);
        assert!(s.query.is_some());
        assert_eq!(s.modalities.len(), 1);
        assert!(s.label < 32);
    }

    #[test]
    fn alignment_samples_are_trimodal() {
        let b = Benchmark::audio_set();
        let s = Dataset::sample(&b, 0, 3);
        assert_eq!(s.modalities.len(), 3);
        assert!(s.modality(Modality::Audio).is_some());
    }

    #[test]
    fn noise_perturbs_but_preserves_prototype_direction() {
        let b = Benchmark::cifar10();
        let proto = class_prototype(&b.name, 1);
        let s = Dataset::sample(&b, 5, 1);
        let img = &s.modality(Modality::Image).unwrap().content;
        assert_ne!(img, &proto);
        let sim = ops::cosine_similarity(img, &proto).unwrap().at(0, 0);
        assert!(sim > 0.3, "noisy sample lost its class signal: {sim}");
    }
}
