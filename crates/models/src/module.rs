//! Functional-level module identity and specification.
//!
//! A *module* in S2M3 is one functional block of a multi-modal model — a
//! modality-wise encoder or a task-specific head (Insight 1). Placement,
//! routing, sharing, and memory accounting all operate on [`ModuleSpec`]s;
//! the actual computation lives in [`crate::exec`].

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::input::Modality;

/// Stable identity of a functional module.
///
/// Two models that reference the same `ModuleId` use *the same weights*
/// (e.g. the frozen `ViT-B/16` vision tower reused by CLIP retrieval,
/// encoder-only VQA, and image captioning). Sharing across tasks — the
/// "share" half of split-and-share — keys on this identity.
///
/// The name is a shared string: a clone is a reference-count bump, while
/// equality, ordering, hashing and JSON all follow the string content.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ModuleId(Arc<str>);

impl ModuleId {
    /// Creates an id from a canonical module name (e.g. `"vision/ViT-B-16"`).
    pub fn new(name: impl Into<String>) -> Self {
        ModuleId(Arc::from(name.into()))
    }

    /// The canonical name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ModuleId {
    fn from(s: &str) -> Self {
        ModuleId::new(s)
    }
}

/// The functional role of a module (Table IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Image understanding tower (ResNet / ViT variants).
    VisionEncoder,
    /// Text understanding tower (CLIP/OpenCLIP transformers).
    TextEncoder,
    /// Audio understanding tower (ImageBind-style ViT-B over spectrograms).
    AudioEncoder,
    /// Autoregressive language model acting as a generative task head
    /// (Vicuna, Phi-3-Mini, TinyLlama, GPT-2).
    LanguageModel,
    /// Non-parametric similarity head (cosine similarity / InfoNCE).
    DistanceHead,
    /// Linear classification head.
    ClassifierHead,
}

impl ModuleKind {
    /// Whether this module is a modality-wise encoder (can run in parallel
    /// with other encoders of the same request — Insight 2).
    pub fn is_encoder(self) -> bool {
        matches!(
            self,
            ModuleKind::VisionEncoder | ModuleKind::TextEncoder | ModuleKind::AudioEncoder
        )
    }

    /// Whether this module is a task head (runs after all encoders).
    pub(crate) fn is_head(self) -> bool {
        !self.is_encoder()
    }

    /// The input modality consumed by an encoder, or `None` for heads.
    pub fn modality(self) -> Option<Modality> {
        match self {
            ModuleKind::VisionEncoder => Some(Modality::Image),
            ModuleKind::TextEncoder => Some(Modality::Text),
            ModuleKind::AudioEncoder => Some(Modality::Audio),
            _ => None,
        }
    }

    /// All kinds, in a stable order.
    pub fn all() -> [ModuleKind; 6] {
        [
            ModuleKind::VisionEncoder,
            ModuleKind::TextEncoder,
            ModuleKind::AudioEncoder,
            ModuleKind::LanguageModel,
            ModuleKind::DistanceHead,
            ModuleKind::ClassifierHead,
        ]
    }
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModuleKind::VisionEncoder => "vision-encoder",
            ModuleKind::TextEncoder => "text-encoder",
            ModuleKind::AudioEncoder => "audio-encoder",
            ModuleKind::LanguageModel => "language-model",
            ModuleKind::DistanceHead => "distance-head",
            ModuleKind::ClassifierHead => "classifier-head",
        };
        f.write_str(s)
    }
}

/// Numeric precision the module's weights are stored in, which determines
/// its memory footprint. Mirrors common deployment practice: encoders ship
/// fp32, billion-parameter language models ship fp16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 4 bytes per parameter.
    Fp32,
    /// 2 bytes per parameter.
    Fp16,
}

impl Precision {
    /// Bytes occupied by one parameter.
    pub(crate) fn bytes_per_param(self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
        }
    }
}

/// Specification of one functional module: everything placement, routing,
/// and cost accounting need to know, but none of the weights.
///
/// The *work unit* of `flops_per_unit` depends on the kind:
/// one image for vision encoders, one (77-token) prompt for text encoders,
/// one clip for audio encoders, one token processed for language models,
/// and one candidate comparison / one classification for heads.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    /// Stable identity (sharing key).
    pub id: ModuleId,
    /// Functional role.
    pub kind: ModuleKind,
    /// Number of parameters.
    pub params: u64,
    /// Output embedding dimension (logit count for classifier heads).
    pub embed_dim: usize,
    /// GFLOPs per work unit (see type-level docs for the unit definition).
    pub gflops_per_unit: f64,
    /// Weight storage precision.
    pub precision: Precision,
}

impl ModuleSpec {
    /// Weight memory footprint in bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.params * self.precision.bytes_per_param()
    }

    /// Total resident memory requirement `r_m` in bytes: weights plus an
    /// activation/workspace share proportional to compute intensity.
    ///
    /// The activation share matters for reproducing the paper's feasibility
    /// results (a 4 GB Jetson cannot host `RN50x16` even though its weights
    /// alone would fit — activations at 384 px push it over).
    pub fn memory_bytes(&self) -> u64 {
        // ~12 MB of workspace per GFLOP of per-unit compute, capped below by
        // a small fixed buffer. Calibrated so that RN50x16 (61 GFLOP/img)
        // carries ~0.7 GB of workspace while ViT-B/16 (17.6) carries ~0.2 GB.
        let activation = (self.gflops_per_unit * 12.0 * 1024.0 * 1024.0) as u64;
        self.weight_bytes() + activation.max(8 * 1024 * 1024)
    }

    /// GFLOPs for `units` work units.
    pub fn gflops(&self, units: f64) -> f64 {
        self.gflops_per_unit * units
    }

    /// Size in bytes of this module's output for `units` work units
    /// (embeddings at fp32), used to cost the encoder→head transfer.
    pub fn output_bytes(&self, units: f64) -> u64 {
        (self.embed_dim as f64 * 4.0 * units.max(1.0)) as u64
    }

    /// Parameter count in millions, as the paper reports it.
    pub(crate) fn mparams(&self) -> f64 {
        self.params as f64 / 1.0e6
    }
}

impl fmt::Display for ModuleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {:.0}M params, {:.1} GFLOP/unit",
            self.id,
            self.kind,
            self.mparams(),
            self.gflops_per_unit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: ModuleKind, params: u64, gflops: f64) -> ModuleSpec {
        ModuleSpec {
            id: ModuleId::new("test/mod"),
            kind,
            params,
            embed_dim: 512,
            gflops_per_unit: gflops,
            precision: Precision::Fp32,
        }
    }

    #[test]
    fn module_id_serializes_as_the_bare_name() {
        let id = ModuleId::new("vision/ViT-B-16");
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, r#""vision/ViT-B-16""#);
    }

    #[test]
    fn module_id_identity_is_the_name_not_the_allocation() {
        use std::collections::{BTreeMap, HashMap};
        use std::hash::{BuildHasher, RandomState};
        // Two separately built ids share no allocation.
        let a = ModuleId::new("text/CLIP-B-16");
        let b = ModuleId::new(format!("text/{}", "CLIP-B-16"));
        assert!(!std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let mut tree = BTreeMap::from([(a.clone(), 1)]);
        assert_eq!(tree.insert(b.clone(), 2), Some(1));
        let mut hashed = HashMap::from([(a.clone(), 1)]);
        assert_eq!(hashed.insert(b, 2), Some(1));
        // Order is the names', whatever order the ids were built in.
        let mut ids = [ModuleId::new("vision/x"), ModuleId::new("head/x"), a];
        ids.sort();
        assert_eq!(
            ids.iter().map(ModuleId::as_str).collect::<Vec<_>>(),
            ["head/x", "text/CLIP-B-16", "vision/x"]
        );
        // A clone shares the name.
        assert!(std::ptr::eq(ids[0].as_str(), ids[0].clone().as_str()));
    }

    #[test]
    fn kind_classification() {
        assert!(ModuleKind::VisionEncoder.is_encoder());
        assert!(ModuleKind::AudioEncoder.is_encoder());
        assert!(!ModuleKind::LanguageModel.is_encoder());
        assert!(ModuleKind::DistanceHead.is_head());
        assert!(ModuleKind::ClassifierHead.is_head());
        assert_eq!(ModuleKind::TextEncoder.modality(), Some(Modality::Text));
        assert_eq!(ModuleKind::ClassifierHead.modality(), None);
        // Every kind is either an encoder or a head, never both.
        for k in ModuleKind::all() {
            assert!(k.is_encoder() != k.is_head());
        }
    }

    #[test]
    fn memory_includes_weights_and_activations() {
        let s = spec(ModuleKind::VisionEncoder, 86_000_000, 17.6);
        assert_eq!(s.weight_bytes(), 86_000_000 * 4);
        assert!(s.memory_bytes() > s.weight_bytes());
        // Activation share ~ 12 MB/GFLOP.
        let act = s.memory_bytes() - s.weight_bytes();
        assert!((200..250).contains(&(act / (1024 * 1024))), "act = {act}");
    }

    #[test]
    fn fp16_halves_weight_bytes() {
        let mut s = spec(ModuleKind::LanguageModel, 7_000_000_000, 14.0);
        let fp32 = s.weight_bytes();
        s.precision = Precision::Fp16;
        assert_eq!(s.weight_bytes() * 2, fp32);
    }

    #[test]
    fn gflops_scale_with_units() {
        let s = spec(ModuleKind::TextEncoder, 38_000_000, 5.9);
        assert!((s.gflops(101.0) - 595.9).abs() < 1e-6);
        assert_eq!(s.gflops(0.0), 0.0);
    }

    #[test]
    fn output_bytes_floor_at_one_unit() {
        let s = spec(ModuleKind::VisionEncoder, 1, 1.0);
        assert_eq!(s.output_bytes(0.0), 512 * 4);
        assert_eq!(s.output_bytes(3.0), 3 * 512 * 4);
    }

    #[test]
    fn module_id_roundtrip_and_display() {
        let id: ModuleId = "vision/ViT-B-16".into();
        assert_eq!(id.as_str(), "vision/ViT-B-16");
        assert_eq!(format!("{id}"), "vision/ViT-B-16");
        let s = spec(ModuleKind::VisionEncoder, 86_000_000, 17.6);
        assert!(format!("{s}").contains("86M params"));
    }
}
