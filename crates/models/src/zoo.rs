//! The model zoo: Table II's multi-modal architectures across the five
//! tasks of Table IV, assembled from catalog modules.
//!
//! A [`ModelSpec`] is a *composition* of functional modules: a set of
//! modality-wise encoders plus exactly one task head. Models own copies of
//! their module specs for convenience; module **identity** (the sharing
//! key) is carried by [`ModuleId`] equality across models.

use std::collections::BTreeSet;

use crate::catalog::Catalog;
use crate::module::{ModuleId, ModuleSpec};

/// The five multi-modal task families of Table IV (captioning folded in as
/// the paper's sixth architecture family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Task {
    /// Zero-shot image-text retrieval (CLIP-style): image + candidate
    /// prompts → cosine ranking. Parallelizable across two encoders.
    ImageTextRetrieval,
    /// Encoder-only VQA: image + question through encoders, classifier
    /// head. Parallelizable.
    EncoderVqa,
    /// Decoder-only VQA (LLaVA-style): vision encoder + LLM head. The LLM
    /// consumes the question directly; only one encoder, no parallelism.
    DecoderVqa,
    /// Cross-modal alignment (ImageBind-style): three encoders + InfoNCE.
    /// Parallelizable.
    CrossModalAlignment,
    /// Image classification: vision encoder + linear classifier.
    ImageClassification,
    /// Image captioning: vision encoder + GPT-2 generative head.
    ImageCaptioning,
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Task::ImageTextRetrieval => "image-text-retrieval",
            Task::EncoderVqa => "encoder-vqa",
            Task::DecoderVqa => "decoder-vqa",
            Task::CrossModalAlignment => "cross-modal-alignment",
            Task::ImageClassification => "image-classification",
            Task::ImageCaptioning => "image-captioning",
        })
    }
}

/// One multi-modal model: a named composition of encoder modules and a
/// single task head (Insight 1's split).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Human-readable model name as the paper uses it.
    pub name: String,
    /// Task family.
    pub task: Task,
    encoders: Vec<ModuleSpec>,
    head: ModuleSpec,
}

impl ModelSpec {
    /// Assembles a model, validating the composition.
    ///
    /// # Errors
    ///
    /// Returns a message if any "encoder" is actually a head, the head is
    /// an encoder, or the encoder list is empty.
    pub fn new(
        name: impl Into<String>,
        task: Task,
        encoders: Vec<ModuleSpec>,
        head: ModuleSpec,
    ) -> Result<Self, String> {
        let name = name.into();
        if encoders.is_empty() {
            return Err(format!("model {name}: no encoders"));
        }
        if let Some(bad) = encoders.iter().find(|m| !m.kind.is_encoder()) {
            return Err(format!("model {name}: {} is not an encoder", bad.id));
        }
        if !head.kind.is_head() {
            return Err(format!("model {name}: {} is not a head", head.id));
        }
        Ok(ModelSpec {
            name,
            task,
            encoders,
            head,
        })
    }

    /// The modality-wise encoder modules.
    pub fn encoders(&self) -> &[ModuleSpec] {
        &self.encoders
    }

    /// The task head module.
    pub fn head(&self) -> &ModuleSpec {
        &self.head
    }

    /// All modules (encoders then head) — `M_k` in the paper.
    pub fn modules(&self) -> impl Iterator<Item = &ModuleSpec> {
        self.encoders.iter().chain(std::iter::once(&self.head))
    }

    /// All module ids.
    pub(crate) fn module_ids(&self) -> Vec<ModuleId> {
        self.modules().map(|m| m.id.clone()).collect()
    }

    /// Total parameter count — the *centralized* deployment cost
    /// `Σ_m r_m` of Sec. IV-A.
    pub fn total_params(&self) -> u64 {
        self.modules().map(|m| m.params).sum()
    }

    /// Largest single module — the *split* worst-case per-device cost
    /// `max_m r_m` of Sec. IV-A.
    pub fn max_module_params(&self) -> u64 {
        self.modules().map(|m| m.params).max().unwrap_or(0)
    }
}

/// The assembled zoo.
#[derive(Debug, Clone)]
pub struct Zoo {
    catalog: Catalog,
    models: Vec<ModelSpec>,
}

impl Zoo {
    /// Builds the paper's standard zoo (Table II plus the shared-CLIP
    /// tri-modal alignment model used in the multi-task experiments).
    ///
    /// # Panics
    ///
    /// Never panics for the standard catalog; composition is validated at
    /// construction and covered by tests.
    pub fn standard() -> Self {
        let c = Catalog::standard();
        let g = |name: &str| {
            c.get_by_name(name)
                .expect("standard catalog module")
                .clone()
        };
        let mut models = Vec::new();
        let mut push = |m: Result<ModelSpec, String>| models.push(m.expect("valid standard model"));

        // --- Image-text retrieval: the nine CLIP variants.
        let clips = [
            ("CLIP ResNet-50", "vision/RN50", "text/CLIP-RN50"),
            ("CLIP ResNet-101", "vision/RN101", "text/CLIP-RN101"),
            ("CLIP ResNet-50x4", "vision/RN50x4", "text/CLIP-RN50x4"),
            ("CLIP ResNet-50x16", "vision/RN50x16", "text/CLIP-RN50x16"),
            ("CLIP ResNet-50x64", "vision/RN50x64", "text/CLIP-RN50x64"),
            ("CLIP ViT-B/32", "vision/ViT-B-32", "text/CLIP-B-32"),
            ("CLIP ViT-B/16", "vision/ViT-B-16", "text/CLIP-B-16"),
            ("CLIP ViT-L/14", "vision/ViT-L-14", "text/CLIP-L-14"),
            (
                "CLIP ViT-L/14@336",
                "vision/ViT-L-14-336",
                "text/CLIP-L-14-336",
            ),
        ];
        for (name, v, t) in clips {
            push(ModelSpec::new(
                name,
                Task::ImageTextRetrieval,
                vec![g(v), g(t)],
                g("head/cosine"),
            ));
        }

        // --- Encoder-only VQA. "Small" totals 124M (ViT-B/16 CLIP pair),
        //     "Large" 389M (ViT-L/14@336 pair), matching Table VI.
        push(ModelSpec::new(
            "Encoder-only VQA (Small)",
            Task::EncoderVqa,
            vec![g("vision/ViT-B-16"), g("text/CLIP-B-16")],
            g("head/classifier-vqa-coco-s"),
        ));
        push(ModelSpec::new(
            "Encoder-only VQA (Large)",
            Task::EncoderVqa,
            vec![g("vision/ViT-L-14-336"), g("text/CLIP-L-14-336")],
            g("head/classifier-vqa-coco-l"),
        ));

        // --- Decoder-only VQA: LLaVA family (Table II).
        let llavas = [
            ("LLaVA-v1.5-7B", "vision/ViT-L-14-336", "llm/Vicuna-7B"),
            ("LLaVA-Next-7B", "vision/ViT-L-14-336", "llm/Vicuna-7B"),
            ("LLaVA-v1.5-13B", "vision/ViT-L-14-336", "llm/Vicuna-13B"),
            ("LLaVA-Next-13B", "vision/ViT-L-14-336", "llm/Vicuna-13B"),
            ("xtuner-Phi-3-Mini", "vision/ViT-L-14-336", "llm/Phi-3-Mini"),
            ("Flint-v0.5-1B", "vision/ViT-L-14-336", "llm/TinyLlama-1.1B"),
            ("LLaVA-v1.5-7B (S)", "vision/ViT-B-16", "llm/Vicuna-7B"),
            ("Flint-v0.5-1B (S)", "vision/ViT-B-16", "llm/TinyLlama-1.1B"),
        ];
        for (name, v, l) in llavas {
            push(ModelSpec::new(name, Task::DecoderVqa, vec![g(v)], g(l)));
        }

        // --- Cross-modal alignment. Full ImageBind (Table II), plus the
        //     shared-CLIP tri-modal model the multi-task experiments
        //     deploy (vision ViT-B/16 + text CLIP TRF + audio ViT-B =
        //     209M, matching Tables X and XI).
        push(ModelSpec::new(
            "ImageBind",
            Task::CrossModalAlignment,
            vec![
                g("vision/OpenCLIP-ViT-H-14"),
                g("text/OpenCLIP-TRF"),
                g("audio/ViT-B"),
            ],
            g("head/infonce"),
        ));
        push(ModelSpec::new(
            "AlignBind-B",
            Task::CrossModalAlignment,
            vec![g("vision/ViT-B-16"), g("text/CLIP-B-16"), g("audio/ViT-B")],
            g("head/infonce"),
        ));

        // --- Image classification (Food-101 over the shared ViT-B/16).
        push(ModelSpec::new(
            "CLIP-Classifier Food-101",
            Task::ImageClassification,
            vec![g("vision/ViT-B-16")],
            g("head/classifier-food101"),
        ));

        // --- Image captioning (NLP Connect ViT-GPT2).
        push(ModelSpec::new(
            "NLP Connect ViT-GPT2",
            Task::ImageCaptioning,
            vec![g("vision/ViT-B-16")],
            g("llm/GPT2"),
        ));

        Zoo { catalog: c, models }
    }

    /// The underlying module catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All models.
    pub fn models(&self) -> &[ModelSpec] {
        &self.models
    }

    /// Looks up a model by its paper name.
    pub fn model(&self, name: &str) -> Option<&ModelSpec> {
        self.models.iter().find(|m| m.name == name)
    }

    /// Distinct module ids across a set of models — the shared module set
    /// `M = ∪_k M_k` of Sec. IV-B. Its size `c` is what the shared
    /// deployment pays for; without sharing the cost is `Σ_k |M_k|`.
    pub(crate) fn distinct_modules<'a>(
        models: impl IntoIterator<Item = &'a ModelSpec>,
    ) -> BTreeSet<ModuleId> {
        let mut set = BTreeSet::new();
        for m in models {
            set.extend(m.module_ids());
        }
        set
    }

    /// Total parameters of a *shared* deployment of `models` (each
    /// distinct module counted once).
    pub fn shared_params<'a>(&self, models: impl IntoIterator<Item = &'a ModelSpec>) -> u64 {
        Self::distinct_modules(models)
            .iter()
            .filter_map(|id| self.catalog.get(id))
            .map(|m| m.params)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_all_tasks_and_paper_scale() {
        let zoo = Zoo::standard();
        assert!(zoo.models().len() >= 14, "only {}", zoo.models().len());
        // Every one of the six task families has a model.
        let tasks: BTreeSet<_> = zoo.models().iter().map(|m| m.task).collect();
        assert_eq!(tasks.len(), 6);
    }

    #[test]
    fn model_totals_match_table_vi() {
        let zoo = Zoo::standard();
        let total = |n: &str| zoo.model(n).unwrap().total_params() / 1_000_000;
        assert_eq!(total("CLIP ResNet-50"), 76);
        assert_eq!(total("CLIP ResNet-50x64"), 572);
        assert_eq!(total("CLIP ViT-B/16"), 124);
        assert_eq!(total("CLIP ViT-L/14@336"), 389);
        // Encoder-only rows of Table VI: 124M / 389M (+ ~1K head).
        assert_eq!(total("Encoder-only VQA (Small)"), 124);
        assert_eq!(total("Encoder-only VQA (Large)"), 389);
        // ImageBind: ~1.0B.
        assert_eq!(total("ImageBind"), 1017);
        // Shared tri-modal alignment: 209M (Table X/XI).
        assert_eq!(total("AlignBind-B"), 209);
    }

    #[test]
    fn split_cost_is_max_module_table_vi_s2m3_column() {
        let zoo = Zoo::standard();
        let max = |n: &str| zoo.model(n).unwrap().max_module_params() / 1_000_000;
        assert_eq!(max("CLIP ResNet-50"), 38);
        assert_eq!(max("CLIP ResNet-101"), 56);
        assert_eq!(max("CLIP ResNet-50x4"), 87);
        assert_eq!(max("CLIP ResNet-50x16"), 168);
        assert_eq!(max("CLIP ResNet-50x64"), 421);
        assert_eq!(max("CLIP ViT-B/32"), 88);
        assert_eq!(max("CLIP ViT-B/16"), 86);
        assert_eq!(max("CLIP ViT-L/14"), 304);
        assert_eq!(max("ImageBind"), 630);
    }

    #[test]
    fn sharing_matches_table_x_progression() {
        // Retrieval → +EncoderVQA → +AlignBind-B → +Classification:
        // shared params 124M → 124M(+1K) → 209M → 209M(+52K).
        let zoo = Zoo::standard();
        let seq = [
            "CLIP ViT-B/16",
            "Encoder-only VQA (Small)",
            "AlignBind-B",
            "CLIP-Classifier Food-101",
        ];
        let models: Vec<_> = seq.iter().map(|n| zoo.model(n).unwrap()).collect();
        let shared_m = |k: usize| zoo.shared_params(models[..k].iter().copied()) / 1_000_000;
        assert_eq!(shared_m(1), 124);
        assert_eq!(shared_m(2), 124); // +1K classifier only
        assert_eq!(shared_m(3), 209); // +85M audio encoder
        assert_eq!(shared_m(4), 209); // +52K classifier only
                                      // Dedicated deployment grows with every task instead.
        let dedicated = models.iter().map(|m| m.total_params()).sum::<u64>() / 1_000_000;
        assert_eq!(dedicated, 124 + 124 + 209 + 86);
    }

    #[test]
    fn module_identity_shared_across_tasks() {
        // ViT-B/16 appears in retrieval, VQA, alignment, classification,
        // captioning — Insight 4's reuse.
        let zoo = Zoo::standard();
        let users: Vec<_> = zoo
            .models()
            .iter()
            .filter(|m| {
                m.module_ids()
                    .iter()
                    .any(|id| id.as_str() == "vision/ViT-B-16")
            })
            .collect();
        assert!(users.len() >= 5, "ViT-B/16 used by {} models", users.len());
        let tasks: BTreeSet<_> = users.iter().map(|m| m.task).collect();
        assert!(tasks.len() >= 4);
    }

    #[test]
    fn composition_validation_rejects_bad_models() {
        let c = Catalog::standard();
        let vision = c.get_by_name("vision/ViT-B-16").unwrap().clone();
        let head = c.get_by_name("head/cosine").unwrap().clone();
        // Head in encoder position.
        assert!(ModelSpec::new(
            "bad",
            Task::ImageTextRetrieval,
            vec![head.clone()],
            head.clone()
        )
        .is_err());
        // Encoder in head position.
        assert!(ModelSpec::new(
            "bad",
            Task::ImageTextRetrieval,
            vec![vision.clone()],
            vision
        )
        .is_err());
        // Empty encoders.
        assert!(ModelSpec::new("bad", Task::ImageTextRetrieval, vec![], head).is_err());
    }

    #[test]
    fn table_iv_functional_module_grid() {
        // Table IV: which module kinds each task family uses, and which
        // families are parallelizable ('||').
        use crate::module::ModuleKind as K;
        let zoo = Zoo::standard();
        let kinds = |name: &str| -> std::collections::BTreeSet<String> {
            zoo.model(name)
                .unwrap()
                .modules()
                .map(|m| m.kind.to_string())
                .collect()
        };
        // Image-text retrieval (||): vision + text + distance.
        let r = kinds("CLIP ViT-B/16");
        assert!(r.contains(&K::VisionEncoder.to_string()));
        assert!(r.contains(&K::TextEncoder.to_string()));
        assert!(r.contains(&K::DistanceHead.to_string()));
        // Encoder-only VQA (||): vision + text + classifier.
        let v = kinds("Encoder-only VQA (Small)");
        assert!(v.contains(&K::ClassifierHead.to_string()));
        // Decoder-only VQA: vision + LLM, no text encoder, NOT parallel.
        let d = kinds("LLaVA-v1.5-7B");
        assert!(d.contains(&K::LanguageModel.to_string()));
        assert!(!d.contains(&K::TextEncoder.to_string()));
        // Cross-modal alignment (||): vision + text + audio + distance.
        let a = kinds("ImageBind");
        assert!(a.contains(&K::AudioEncoder.to_string()));
        // Image classification: vision + classifier only.
        let c = kinds("CLIP-Classifier Food-101");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn modules_iterator_yields_encoders_then_head() {
        let zoo = Zoo::standard();
        let m = zoo.model("CLIP ViT-B/16").unwrap();
        let ids: Vec<_> = m.modules().map(|s| s.id.as_str().to_string()).collect();
        assert_eq!(
            ids,
            vec!["vision/ViT-B-16", "text/CLIP-B-16", "head/cosine"]
        );
    }
}
