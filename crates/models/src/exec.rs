//! Executable synthetic instances of the functional modules.
//!
//! The paper plugs in *pretrained, frozen* modules and never touches their
//! weights; its accuracy claim (Table VIII) is that splitting a model across
//! devices cannot change its outputs. We reproduce that property
//! structurally: every module here is a **pure deterministic function** of
//! (module id, input), built from seeded weights, so any deployment — one
//! device or five — produces bit-identical outputs.
//!
//! ## Semantic alignment
//!
//! Real CLIP-style encoder pairs map matching image/text inputs to nearby
//! embeddings because they were trained contrastively. The synthetic
//! analogue: all encoders that share an embedding width `d` also share a
//! **semantic core** projection (raw 64-d feature space → `d`), plus a
//! module-specific *distortion* term whose magnitude encodes the encoder's
//! quality (larger/better towers distort less — how ViT-L out-scores
//! ViT-B in Table VIII). Benchmark datasets (in `s2m3-data`) synthesize
//! class-structured raw features, and zero-shot accuracy emerges from the
//! interplay of dataset noise and module distortion.

use s2m3_tensor::{ops, Matrix, TensorError};

use crate::input::{ModalityInput, RAW_FEATURE_DIM};
use crate::module::{ModuleId, ModuleKind, ModuleSpec};

/// Number of candidate answers in the synthetic generative answer space
/// (decoder VQA / captioning heads score these candidates).
pub(crate) const ANSWER_SPACE: usize = 32;

/// Relative weight of the image embedding inside a generative head's
/// combined representation (questions dominate, as in VQA language bias).
const IMAGE_BLEND: f32 = 0.3;

/// Internal decision-space width of synthetic generative heads. Fixed and
/// small: the real model's hidden width matters for memory/FLOPs (carried
/// by [`ModuleSpec`]), not for the synthetic decision computation.
const LLM_SPACE_DIM: usize = 128;

/// Errors from executing synthetic modules.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// `encode` was called on a head module.
    NotAnEncoder(ModuleId),
    /// `run_head` was called on an encoder module.
    NotAHead(ModuleId),
    /// The input modality does not match the encoder's modality.
    WrongModality {
        /// Module that rejected the input.
        module: ModuleId,
        /// Modality it received.
        got: crate::input::Modality,
    },
    /// A head required an encoding of this kind but none was provided.
    MissingEncoding(ModuleKind),
    /// A generative head required the raw query but none was provided.
    MissingQuery(ModuleId),
    /// An underlying tensor operation failed (shape bug).
    Tensor(TensorError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NotAnEncoder(id) => write!(f, "{id} is not an encoder"),
            ExecError::NotAHead(id) => write!(f, "{id} is not a head"),
            ExecError::WrongModality { module, got } => {
                write!(f, "{module}: wrong input modality {got}")
            }
            ExecError::MissingEncoding(kind) => write!(f, "missing encoding from {kind}"),
            ExecError::MissingQuery(id) => write!(f, "{id}: generative head needs the query"),
            ExecError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Tensor(e)
    }
}

/// The shared semantic projection for embedding width `dim`
/// (raw `RAW_FEATURE_DIM` → `dim`). All encoder towers of the same width
/// share it — the synthetic analogue of contrastive co-training.
pub(crate) fn semantic_core(dim: usize) -> Matrix {
    Matrix::seeded_gaussian(&format!("semantic-core/{dim}"), RAW_FEATURE_DIM, dim, 1.0)
}

/// Raw-space prototype of class `class` in `benchmark` — the ground-truth
/// structure benchmark datasets are synthesized around.
pub fn class_prototype(benchmark: &str, class: usize) -> Matrix {
    Matrix::seeded_gaussian(
        &format!("proto/{benchmark}/{class}"),
        1,
        RAW_FEATURE_DIM,
        1.0,
    )
}

/// Projects embedding rows into `dim` when widths differ, via a seeded
/// bridge matrix — the synthetic analogue of ImageBind-style per-modality
/// projection heads that map every tower into one joint space. Identity
/// when the width already matches.
pub(crate) fn bridge_to(m: &Matrix, dim: usize) -> Matrix {
    if m.cols() == dim {
        return m.clone();
    }
    let proj = Matrix::seeded_gaussian(
        &format!("dim-bridge/{}x{dim}", m.cols()),
        m.cols(),
        dim,
        (1.0 / m.cols() as f32).sqrt(),
    );
    ops::l2_normalize(&ops::matmul(m, &proj).expect("bridge dims"))
}

/// Raw-space prototype of answer `a` in the shared generative answer space.
pub fn answer_prototype(a: usize) -> Matrix {
    Matrix::seeded_gaussian(&format!("answer-proto/{a}"), 1, RAW_FEATURE_DIM, 1.0)
}

/// Per-module distortion level: the synthetic encoder-quality knob.
/// Smaller is better; values are calibrated so Table VIII's ordering
/// (ViT-L > ViT-B, 13B > 7B > 1B) is reproduced by `s2m3-data`.
pub(crate) fn distortion_for(id: &ModuleId) -> f32 {
    match id.as_str() {
        "vision/RN50" => 1.05,
        "vision/RN101" => 1.0,
        "vision/RN50x4" => 0.95,
        "vision/RN50x16" => 0.85,
        "vision/RN50x64" => 0.70,
        "vision/ViT-B-32" => 0.95,
        "vision/ViT-B-16" => 0.90,
        "vision/ViT-L-14" => 0.55,
        "vision/ViT-L-14-336" => 0.42,
        "vision/OpenCLIP-ViT-H-14" => 0.38,
        "llm/Vicuna-13B" => 0.45,
        "llm/Vicuna-7B" => 0.50,
        "llm/Phi-3-Mini" => 0.90,
        "llm/TinyLlama-1.1B" => 1.50,
        "llm/GPT2" => 1.70,
        s if s.starts_with("text/") => 0.25,
        s if s.starts_with("audio/") => 0.60,
        _ => 0.50,
    }
}

/// A modality-wise encoder tower.
///
/// `encode(x) = l2norm(l2norm(x·C_d) + q·l2norm(gelu(x·W1)·W2))` where
/// `C_d` is the shared semantic core for the tower's width and `q` the
/// module's distortion (junk-to-signal ratio).
#[derive(Debug, Clone)]
pub struct SyntheticEncoder {
    spec: ModuleSpec,
    core: Matrix,
    w1: Matrix,
    w2: Matrix,
    distortion: f32,
}

impl SyntheticEncoder {
    /// Builds the encoder for `spec` (weights seeded from the module id).
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAnEncoder`] if `spec` is a head.
    pub(crate) fn new(spec: ModuleSpec) -> Result<Self, ExecError> {
        if !spec.kind.is_encoder() {
            return Err(ExecError::NotAnEncoder(spec.id));
        }
        let d = spec.embed_dim;
        let id = spec.id.as_str();
        Ok(SyntheticEncoder {
            core: semantic_core(d),
            w1: Matrix::seeded_gaussian(
                &format!("{id}/w1"),
                RAW_FEATURE_DIM,
                RAW_FEATURE_DIM,
                (1.0 / RAW_FEATURE_DIM as f32).sqrt(),
            ),
            w2: Matrix::seeded_gaussian(
                &format!("{id}/w2"),
                RAW_FEATURE_DIM,
                d,
                (1.0 / RAW_FEATURE_DIM as f32).sqrt(),
            ),
            distortion: distortion_for(&spec.id),
            spec,
        })
    }

    /// The module spec.
    pub(crate) fn spec(&self) -> &ModuleSpec {
        &self.spec
    }

    /// Encodes one modality input into `units x embed_dim` unit-norm rows.
    ///
    /// # Errors
    ///
    /// [`ExecError::WrongModality`] if the input modality does not match
    /// this encoder's kind; tensor errors on malformed content.
    pub(crate) fn encode(&self, input: &ModalityInput) -> Result<Matrix, ExecError> {
        if self.spec.kind.modality() != Some(input.modality) {
            return Err(ExecError::WrongModality {
                module: self.spec.id.clone(),
                got: input.modality,
            });
        }
        let x = &input.content;
        // Both paths are row-normalized so `distortion` is a true
        // signal-to-junk ratio: out = l2norm(sem + q . res) mixes the
        // class-bearing semantic projection with module-specific
        // deterministic distortion at relative weight q.
        let sem = ops::l2_normalize(&ops::matmul(x, &self.core)?);
        let hidden = ops::gelu(&ops::matmul(x, &self.w1)?);
        let res = ops::l2_normalize(&ops::matmul(&hidden, &self.w2)?);
        let mixed = ops::add(&sem, &ops::scale(&res, self.distortion))?;
        Ok(ops::l2_normalize(&mixed))
    }
}

/// A generative (language-model) task head: scores the shared candidate
/// answer space given the vision embedding and the raw question.
#[derive(Debug, Clone)]
pub struct SyntheticLlm {
    spec: ModuleSpec,
    /// Question projection: raw 64-d → embed_dim ("the tokenizer+tower").
    q_core: Matrix,
    /// Candidate answer directions in embed space (`embed_dim x ANSWER_SPACE`).
    answer_dirs: Matrix,
    /// Question-conditioned pseudo-noise weights.
    w1: Matrix,
    w2: Matrix,
    distortion: f32,
}

impl SyntheticLlm {
    /// Builds the LLM head for `spec`.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAHead`] unless `spec` is a [`ModuleKind::LanguageModel`].
    pub(crate) fn new(spec: ModuleSpec) -> Result<Self, ExecError> {
        if spec.kind != ModuleKind::LanguageModel {
            return Err(ExecError::NotAHead(spec.id));
        }
        let d = LLM_SPACE_DIM;
        let id = spec.id.as_str();
        let q_core = Matrix::seeded_gaussian(&format!("llm-q-core/{d}"), RAW_FEATURE_DIM, d, 1.0);
        // Answer directions live in the same space the question core maps
        // into: dir_a = l2norm(answer_prototype(a) · q_core).
        let mut dirs = Matrix::zeros(d, ANSWER_SPACE);
        for a in 0..ANSWER_SPACE {
            let row = ops::l2_normalize(&ops::matmul(&answer_prototype(a), &q_core).expect("dims"));
            for j in 0..d {
                *dirs.at_mut(j, a) = row.at(0, j);
            }
        }
        Ok(SyntheticLlm {
            q_core,
            answer_dirs: dirs,
            w1: Matrix::seeded_gaussian(
                &format!("{id}/w1"),
                RAW_FEATURE_DIM,
                RAW_FEATURE_DIM,
                (1.0 / RAW_FEATURE_DIM as f32).sqrt(),
            ),
            w2: Matrix::seeded_gaussian(
                &format!("{id}/w2"),
                RAW_FEATURE_DIM,
                d,
                (1.0 / RAW_FEATURE_DIM as f32).sqrt(),
            ),
            distortion: distortion_for(&spec.id),
            spec,
        })
    }

    /// The module spec.
    pub(crate) fn spec(&self) -> &ModuleSpec {
        &self.spec
    }

    /// Scores the answer space: `1 x ANSWER_SPACE` logits.
    ///
    /// `vision` is the (possibly multi-row) vision-encoder output; `query`
    /// is the raw question/prompt (captioning passes `None` and scores
    /// candidate captions from the image alone).
    ///
    /// # Errors
    ///
    /// Tensor errors on malformed shapes.
    pub(crate) fn generate(
        &self,
        vision: &Matrix,
        query: Option<&ModalityInput>,
    ) -> Result<Matrix, ExecError> {
        let d = LLM_SPACE_DIM;
        // Project the vision embedding into the LLM's space via a seeded
        // multimodal projector (LLaVA's mm-projector analogue).
        let v_mean = ops::mean_rows(vision)?;
        let proj = Matrix::seeded_gaussian(
            &format!("mmproj/{d}/{}", vision.cols()),
            vision.cols(),
            d,
            (1.0 / vision.cols() as f32).sqrt(),
        );
        let v_emb = ops::l2_normalize(&ops::matmul(&v_mean, &proj)?);

        let combined = match query {
            Some(q) => {
                let q_mean = ops::mean_rows(&q.content)?;
                let q_emb = ops::matmul(&q_mean, &self.q_core)?;
                let hidden = ops::gelu(&ops::matmul(&q_mean, &self.w1)?);
                let noise = ops::matmul(&hidden, &self.w2)?;
                let mut acc = ops::l2_normalize(&q_emb);
                acc = ops::add(&acc, &ops::scale(&v_emb, IMAGE_BLEND))?;
                acc = ops::add(
                    &acc,
                    &ops::scale(&ops::l2_normalize(&noise), self.distortion),
                )?;
                ops::l2_normalize(&acc)
            }
            None => v_emb,
        };
        Ok(ops::matmul(&combined, &self.answer_dirs)?)
    }
}

/// Cosine-similarity retrieval head: ranks text candidates against the
/// (mean) image embedding.
#[derive(Debug, Clone)]
pub struct DistanceHead {
    spec: ModuleSpec,
}

/// InfoNCE-style alignment head: ranks text candidates against the mean of
/// all non-text modality embeddings.
#[derive(Debug, Clone)]
pub struct InfoNceHead {
    spec: ModuleSpec,
}

/// Linear classifier head whose class directions are derived from the
/// benchmark's class prototypes through the semantic core — the synthetic
/// analogue of a probe trained on frozen features.
#[derive(Debug, Clone)]
pub struct ClassifierHead {
    spec: ModuleSpec,
    benchmark: String,
}

fn find_encoding(
    encodings: &[(ModuleKind, Matrix)],
    kind: ModuleKind,
) -> Result<&Matrix, ExecError> {
    encodings
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, m)| m)
        .ok_or(ExecError::MissingEncoding(kind))
}

impl DistanceHead {
    /// Ranks text candidates: `1 x C` cosine scores.
    ///
    /// # Errors
    ///
    /// [`ExecError::MissingEncoding`] without both a vision and a text
    /// encoding.
    pub(crate) fn score(&self, encodings: &[(ModuleKind, Matrix)]) -> Result<Matrix, ExecError> {
        let image = find_encoding(encodings, ModuleKind::VisionEncoder)?;
        let text = find_encoding(encodings, ModuleKind::TextEncoder)?;
        let anchor = bridge_to(&ops::mean_rows(image)?, text.cols());
        Ok(ops::cosine_similarity(&anchor, text)?)
    }
}

impl InfoNceHead {
    /// Ranks text candidates against the fused non-text anchor.
    ///
    /// # Errors
    ///
    /// [`ExecError::MissingEncoding`] without a text encoding plus at
    /// least one other modality.
    pub(crate) fn score(&self, encodings: &[(ModuleKind, Matrix)]) -> Result<Matrix, ExecError> {
        let text = find_encoding(encodings, ModuleKind::TextEncoder)?;
        let mut anchor: Option<Matrix> = None;
        for (kind, enc) in encodings {
            if *kind == ModuleKind::TextEncoder {
                continue;
            }
            let m = ops::l2_normalize(&bridge_to(&ops::mean_rows(enc)?, text.cols()));
            anchor = Some(match anchor {
                None => m,
                Some(a) => ops::add(&a, &m)?,
            });
        }
        let anchor = anchor.ok_or(ExecError::MissingEncoding(ModuleKind::VisionEncoder))?;
        Ok(ops::cosine_similarity(&ops::l2_normalize(&anchor), text)?)
    }
}

impl ClassifierHead {
    /// Class-direction weight matrix (`input_dim x n_classes`), derived
    /// from the benchmark prototypes through the semantic core.
    fn weights(&self, input_dim: usize) -> Matrix {
        let core = semantic_core(input_dim);
        let n = self.spec.embed_dim;
        let mut w = Matrix::zeros(input_dim, n);
        for c in 0..n {
            let dir = ops::l2_normalize(
                &ops::matmul(&class_prototype(&self.benchmark, c), &core).expect("dims"),
            );
            for j in 0..input_dim {
                *w.at_mut(j, c) = dir.at(0, j);
            }
        }
        w
    }

    /// Class logits: `1 x n_classes`.
    ///
    /// Fuses all available encodings (image-only classification uses just
    /// the vision tower; encoder-only VQA fuses vision + question).
    ///
    /// # Errors
    ///
    /// [`ExecError::MissingEncoding`] if no encodings were supplied.
    pub(crate) fn classify(&self, encodings: &[(ModuleKind, Matrix)]) -> Result<Matrix, ExecError> {
        let target = encodings
            .first()
            .ok_or(ExecError::MissingEncoding(ModuleKind::VisionEncoder))?
            .1
            .cols();
        let mut anchor: Option<Matrix> = None;
        for (_, enc) in encodings {
            let m = ops::l2_normalize(&bridge_to(&ops::mean_rows(enc)?, target));
            anchor = Some(match anchor {
                None => m,
                Some(a) => ops::add(&a, &m)?,
            });
        }
        let anchor = ops::l2_normalize(
            &anchor.ok_or(ExecError::MissingEncoding(ModuleKind::VisionEncoder))?,
        );
        let w = self.weights(anchor.cols());
        Ok(ops::matmul(&anchor, &w)?)
    }
}

/// Any executable module, dispatched by its catalog spec.
#[derive(Debug, Clone)]
pub enum Executable {
    /// A modality encoder.
    Encoder(SyntheticEncoder),
    /// A generative LLM head.
    Llm(SyntheticLlm),
    /// A cosine-similarity retrieval head.
    Distance(DistanceHead),
    /// An InfoNCE alignment head.
    InfoNce(InfoNceHead),
    /// A linear classifier head.
    Classifier(ClassifierHead),
}

impl Executable {
    /// Instantiates the executable form of a catalog module.
    ///
    /// Classifier heads derive their benchmark from the module id
    /// (`head/classifier-food101` → benchmark `food101`).
    ///
    /// # Errors
    ///
    /// Propagates constructor validation errors.
    pub fn for_spec(spec: &ModuleSpec) -> Result<Self, ExecError> {
        match spec.kind {
            ModuleKind::VisionEncoder | ModuleKind::TextEncoder | ModuleKind::AudioEncoder => {
                Ok(Executable::Encoder(SyntheticEncoder::new(spec.clone())?))
            }
            ModuleKind::LanguageModel => Ok(Executable::Llm(SyntheticLlm::new(spec.clone())?)),
            ModuleKind::DistanceHead => {
                if spec.id.as_str().contains("infonce") {
                    Ok(Executable::InfoNce(InfoNceHead { spec: spec.clone() }))
                } else {
                    Ok(Executable::Distance(DistanceHead { spec: spec.clone() }))
                }
            }
            ModuleKind::ClassifierHead => {
                let benchmark = spec
                    .id
                    .as_str()
                    .rsplit("classifier-")
                    .next()
                    .unwrap_or("generic")
                    .to_string();
                Ok(Executable::Classifier(ClassifierHead {
                    spec: spec.clone(),
                    benchmark,
                }))
            }
        }
    }

    /// The module spec.
    pub fn spec(&self) -> &ModuleSpec {
        match self {
            Executable::Encoder(e) => e.spec(),
            Executable::Llm(l) => l.spec(),
            Executable::Distance(d) => &d.spec,
            Executable::InfoNce(i) => &i.spec,
            Executable::Classifier(c) => &c.spec,
        }
    }

    /// Runs an encoder module.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAnEncoder`] on head modules; encoder errors
    /// otherwise.
    pub fn encode(&self, input: &ModalityInput) -> Result<Matrix, ExecError> {
        match self {
            Executable::Encoder(e) => e.encode(input),
            other => Err(ExecError::NotAnEncoder(other.spec().id.clone())),
        }
    }

    /// Runs a head module over the tagged encoder outputs.
    ///
    /// `query` carries the raw text input for generative heads (decoder
    /// VQA); retrieval/alignment/classification heads ignore it.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotAHead`] on encoder modules; head-specific errors
    /// otherwise.
    pub fn run_head(
        &self,
        encodings: &[(ModuleKind, Matrix)],
        query: Option<&ModalityInput>,
    ) -> Result<Matrix, ExecError> {
        match self {
            Executable::Encoder(e) => Err(ExecError::NotAHead(e.spec().id.clone())),
            Executable::Llm(l) => {
                let vision = find_encoding(encodings, ModuleKind::VisionEncoder)?;
                l.generate(vision, query)
            }
            Executable::Distance(d) => d.score(encodings),
            Executable::InfoNce(i) => i.score(encodings),
            Executable::Classifier(c) => c.classify(encodings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::input::Modality;

    fn encoder(name: &str) -> SyntheticEncoder {
        let c = Catalog::standard();
        SyntheticEncoder::new(c.get_by_name(name).unwrap().clone()).unwrap()
    }

    #[test]
    fn encoder_rejects_head_specs_and_wrong_modality() {
        let c = Catalog::standard();
        let head = c.get_by_name("head/cosine").unwrap().clone();
        assert!(matches!(
            SyntheticEncoder::new(head),
            Err(ExecError::NotAnEncoder(_))
        ));
        let v = encoder("vision/ViT-B-16");
        let text_in = ModalityInput::text_prompts("q", 3);
        assert!(matches!(
            v.encode(&text_in),
            Err(ExecError::WrongModality { .. })
        ));
    }

    #[test]
    fn encoding_is_deterministic_and_unit_norm() {
        let v = encoder("vision/ViT-B-16");
        let img = ModalityInput::image("cat-42");
        let a = v.encode(&img).unwrap();
        let b = encoder("vision/ViT-B-16").encode(&img).unwrap();
        assert_eq!(a, b, "same module id must produce identical bits");
        assert_eq!(a.shape(), (1, 512));
        let norm: f32 = a.row(0).unwrap().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn paired_towers_align_matching_classes() {
        // Image of class c and prompt c should out-score prompt c' != c:
        // the semantic-core sharing at work.
        let v = encoder("vision/ViT-B-16");
        let t = encoder("text/CLIP-B-16");
        let n_classes = 8;
        let mut prompts = Matrix::zeros(n_classes, RAW_FEATURE_DIM);
        for cl in 0..n_classes {
            let p = class_prototype("unit-bench", cl);
            prompts
                .row_mut(cl)
                .unwrap()
                .copy_from_slice(p.row(0).unwrap());
        }
        let text_emb = t
            .encode(&ModalityInput::with_content(Modality::Text, prompts))
            .unwrap();
        let mut correct = 0;
        for cl in 0..n_classes {
            let img =
                ModalityInput::with_content(Modality::Image, class_prototype("unit-bench", cl));
            let img_emb = v.encode(&img).unwrap();
            let scores = ops::cosine_similarity(&img_emb, &text_emb).unwrap();
            if ops::argmax_rows(&scores).unwrap()[0] == cl {
                correct += 1;
            }
        }
        assert!(correct >= 7, "only {correct}/8 clean prototypes matched");
    }

    #[test]
    fn better_towers_distort_less() {
        assert!(
            distortion_for(&ModuleId::new("vision/ViT-L-14-336"))
                < distortion_for(&ModuleId::new("vision/ViT-B-16"))
        );
        assert!(
            distortion_for(&ModuleId::new("llm/Vicuna-13B"))
                < distortion_for(&ModuleId::new("llm/TinyLlama-1.1B"))
        );
    }

    #[test]
    fn distance_head_requires_both_modalities() {
        let c = Catalog::standard();
        let head = Executable::for_spec(c.get_by_name("head/cosine").unwrap()).unwrap();
        let v = encoder("vision/ViT-B-16");
        let img_emb = v.encode(&ModalityInput::image("x")).unwrap();
        let err = head
            .run_head(&[(ModuleKind::VisionEncoder, img_emb)], None)
            .unwrap_err();
        assert_eq!(err, ExecError::MissingEncoding(ModuleKind::TextEncoder));
    }

    #[test]
    fn llm_head_scores_answer_space() {
        let c = Catalog::standard();
        let llm = Executable::for_spec(c.get_by_name("llm/TinyLlama-1.1B").unwrap()).unwrap();
        let v = encoder("vision/ViT-B-16");
        let img_emb = v.encode(&ModalityInput::image("vqa-img")).unwrap();
        let q = ModalityInput::text_prompts("what color", 1);
        let logits = llm
            .run_head(&[(ModuleKind::VisionEncoder, img_emb)], Some(&q))
            .unwrap();
        assert_eq!(logits.shape(), (1, ANSWER_SPACE));
    }

    #[test]
    fn llm_answers_track_question_prototype() {
        // A question built on answer-prototype a should rank answer a first
        // for a low-distortion LLM.
        let c = Catalog::standard();
        let llm = Executable::for_spec(c.get_by_name("llm/Vicuna-13B").unwrap()).unwrap();
        let v = encoder("vision/ViT-L-14-336");
        let img_emb = v.encode(&ModalityInput::image("scene")).unwrap();
        let mut correct = 0;
        for a in 0..8 {
            let q = ModalityInput::with_content(Modality::Text, answer_prototype(a));
            let logits = llm
                .run_head(&[(ModuleKind::VisionEncoder, img_emb.clone())], Some(&q))
                .unwrap();
            if ops::argmax_rows(&logits).unwrap()[0] == a {
                correct += 1;
            }
        }
        assert!(correct >= 6, "only {correct}/8 clean questions answered");
    }

    #[test]
    fn infonce_fuses_extra_modalities() {
        let c = Catalog::standard();
        let head = Executable::for_spec(c.get_by_name("head/infonce").unwrap()).unwrap();
        let v = encoder("vision/ViT-B-16");
        let t = encoder("text/CLIP-B-16");
        // audio/ViT-B has embed_dim 1024 which mismatches 512 anchors; use
        // matching-width towers for the unit test.
        let img = v.encode(&ModalityInput::image("a")).unwrap();
        let prompts = t.encode(&ModalityInput::text_prompts("cands", 5)).unwrap();
        let scores = head
            .run_head(
                &[
                    (ModuleKind::VisionEncoder, img),
                    (ModuleKind::TextEncoder, prompts),
                ],
                None,
            )
            .unwrap();
        assert_eq!(scores.shape(), (1, 5));
    }

    #[test]
    fn classifier_head_classifies_prototypes() {
        let c = Catalog::standard();
        let head = Executable::for_spec(c.get_by_name("head/classifier-food101").unwrap()).unwrap();
        let v = encoder("vision/ViT-B-16");
        let mut correct = 0;
        for cl in [0usize, 17, 50, 100] {
            let img = ModalityInput::with_content(Modality::Image, class_prototype("food101", cl));
            let emb = v.encode(&img).unwrap();
            let logits = head
                .run_head(&[(ModuleKind::VisionEncoder, emb)], None)
                .unwrap();
            assert_eq!(logits.cols(), 101);
            if ops::argmax_rows(&logits).unwrap()[0] == cl {
                correct += 1;
            }
        }
        assert!(correct >= 3, "only {correct}/4 prototypes classified");
    }

    #[test]
    fn executable_dispatch_covers_all_kinds() {
        let c = Catalog::standard();
        for spec in c.iter() {
            let e = Executable::for_spec(spec).unwrap();
            assert_eq!(&e.spec().id, &spec.id);
            match spec.kind {
                k if k.is_encoder() => assert!(matches!(e, Executable::Encoder(_))),
                ModuleKind::LanguageModel => assert!(matches!(e, Executable::Llm(_))),
                _ => {}
            }
        }
    }

    #[test]
    fn encode_on_head_and_head_on_encoder_error() {
        let c = Catalog::standard();
        let head = Executable::for_spec(c.get_by_name("head/cosine").unwrap()).unwrap();
        assert!(matches!(
            head.encode(&ModalityInput::image("x")),
            Err(ExecError::NotAnEncoder(_))
        ));
        let enc = Executable::for_spec(c.get_by_name("vision/ViT-B-16").unwrap()).unwrap();
        assert!(matches!(
            enc.run_head(&[], None),
            Err(ExecError::NotAHead(_))
        ));
    }
}
