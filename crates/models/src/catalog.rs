//! The functional-module catalog: every module of Table V.
//!
//! Parameter counts follow the paper. Where Table V gives a range
//! ("CLIP TRF 38–85M"), the per-variant text-encoder sizes are recovered
//! from the Table VI totals (e.g. CLIP RN50x64 = 572M total, 421M vision
//! → 151M text, matching the prose in Sec. VI-A). Per-unit GFLOP figures
//! are the published per-image/per-prompt costs of the architectures,
//! which drive the calibrated latency model in `s2m3-sim`.

use std::collections::BTreeMap;

use crate::module::{ModuleId, ModuleKind, ModuleSpec, Precision};

/// GFLOPs to encode one 77-token text prompt with a text tower of
/// `params` parameters (2 FLOPs per parameter per token).
fn text_gflops(params: u64) -> f64 {
    2.0 * params as f64 * 77.0 / 1.0e9
}

/// GFLOPs for a language model to process one token (2 FLOPs/param).
fn llm_gflops_per_token(params: u64) -> f64 {
    2.0 * params as f64 / 1.0e9
}

fn vision(name: &str, params_m: u64, gflops_per_image: f64, dim: usize) -> ModuleSpec {
    ModuleSpec {
        id: ModuleId::new(format!("vision/{name}")),
        kind: ModuleKind::VisionEncoder,
        params: params_m * 1_000_000,
        embed_dim: dim,
        gflops_per_unit: gflops_per_image,
        precision: Precision::Fp32,
    }
}

fn text(name: &str, params_m: u64, dim: usize) -> ModuleSpec {
    let params = params_m * 1_000_000;
    ModuleSpec {
        id: ModuleId::new(format!("text/{name}")),
        kind: ModuleKind::TextEncoder,
        params,
        embed_dim: dim,
        gflops_per_unit: text_gflops(params),
        precision: Precision::Fp32,
    }
}

fn llm(name: &str, params_m: u64, dim: usize, precision: Precision) -> ModuleSpec {
    let params = params_m * 1_000_000;
    ModuleSpec {
        id: ModuleId::new(format!("llm/{name}")),
        kind: ModuleKind::LanguageModel,
        params,
        embed_dim: dim,
        gflops_per_unit: llm_gflops_per_token(params),
        precision,
    }
}

/// Builds the complete Table V catalog.
///
/// The catalog is a value type (cheap to clone) indexed by [`ModuleId`];
/// iteration order is stable (BTreeMap) so every run enumerates modules
/// identically.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    modules: BTreeMap<ModuleId, ModuleSpec>,
}

impl Catalog {
    /// The standard catalog with every module the paper's zoo references.
    pub fn standard() -> Self {
        let mut c = Catalog::default();

        // --- Vision encoders (Table V) with per-image GFLOPs of the
        //     published architectures at their native resolutions.
        c.insert(vision("RN50", 38, 9.0, 1024));
        c.insert(vision("RN101", 56, 12.5, 512));
        c.insert(vision("RN50x4", 87, 23.0, 640));
        c.insert(vision("RN50x16", 168, 61.0, 768));
        c.insert(vision("RN50x64", 421, 271.0, 1024));
        c.insert(vision("ViT-B-32", 88, 4.4, 512));
        c.insert(vision("ViT-B-16", 86, 17.6, 512));
        c.insert(vision("ViT-L-14", 304, 80.7, 768));
        c.insert(vision("ViT-L-14-336", 304, 191.0, 768));
        c.insert(vision("OpenCLIP-ViT-H-14", 630, 335.0, 1024));

        // --- Text encoders. Sizes recovered from Table VI totals.
        c.insert(text("CLIP-RN50", 38, 1024));
        c.insert(text("CLIP-RN101", 38, 512));
        c.insert(text("CLIP-RN50x4", 59, 640));
        c.insert(text("CLIP-RN50x16", 85, 768));
        c.insert(text("CLIP-RN50x64", 151, 1024));
        c.insert(text("CLIP-B-32", 38, 512));
        c.insert(text("CLIP-B-16", 38, 512));
        c.insert(text("CLIP-L-14", 85, 768));
        c.insert(text("CLIP-L-14-336", 85, 768));
        c.insert(text("OpenCLIP-TRF", 302, 1024));

        // --- Audio encoder (ImageBind's ViT-B over mel-spectrograms;
        //     ~229 patch tokens per 10 s clip).
        c.insert(ModuleSpec {
            id: ModuleId::new("audio/ViT-B"),
            kind: ModuleKind::AudioEncoder,
            params: 85_000_000,
            embed_dim: 1024,
            gflops_per_unit: 38.9,
            precision: Precision::Fp32,
        });

        // --- Language models (generative task heads). fp16 like common
        //     deployments; per-token cost, the request defines token count.
        c.insert(llm("Vicuna-7B", 7_000, 4096, Precision::Fp16));
        c.insert(llm("Vicuna-13B", 13_000, 5120, Precision::Fp16));
        c.insert(llm("Phi-3-Mini", 3_800, 3072, Precision::Fp16));
        c.insert(llm("TinyLlama-1.1B", 1_100, 2048, Precision::Fp16));
        c.insert(llm("GPT2", 124, 768, Precision::Fp32));

        // --- Non-parametric similarity heads. embed_dim 0: they pass
        //     scores through rather than re-embedding.
        c.insert(ModuleSpec {
            id: ModuleId::new("head/cosine"),
            kind: ModuleKind::DistanceHead,
            params: 0,
            embed_dim: 0,
            gflops_per_unit: 1.0e-4,
            precision: Precision::Fp32,
        });
        c.insert(ModuleSpec {
            id: ModuleId::new("head/infonce"),
            kind: ModuleKind::DistanceHead,
            params: 0,
            embed_dim: 0,
            gflops_per_unit: 1.0e-4,
            precision: Precision::Fp32,
        });

        // --- Classifier heads. Parameter counts match the Table X deltas:
        //     encoder-only VQA adds ~1K, Food-101 classification adds ~52K.
        c.insert(ModuleSpec {
            id: ModuleId::new("head/classifier-vqa-coco-s"),
            kind: ModuleKind::ClassifierHead,
            params: 512 * 2,
            embed_dim: 2,
            gflops_per_unit: 1.0e-5,
            precision: Precision::Fp32,
        });
        c.insert(ModuleSpec {
            id: ModuleId::new("head/classifier-vqa-coco-l"),
            kind: ModuleKind::ClassifierHead,
            params: 768 * 2,
            embed_dim: 2,
            gflops_per_unit: 1.0e-5,
            precision: Precision::Fp32,
        });
        c.insert(ModuleSpec {
            id: ModuleId::new("head/classifier-food101"),
            kind: ModuleKind::ClassifierHead,
            params: 512 * 101,
            embed_dim: 101,
            gflops_per_unit: 1.0e-4,
            precision: Precision::Fp32,
        });

        c
    }

    /// Inserts (or replaces) a module spec.
    pub(crate) fn insert(&mut self, spec: ModuleSpec) {
        self.modules.insert(spec.id.clone(), spec);
    }

    /// Looks up a module by id.
    pub(crate) fn get(&self, id: &ModuleId) -> Option<&ModuleSpec> {
        self.modules.get(id)
    }

    /// Looks up by canonical name string.
    pub fn get_by_name(&self, name: &str) -> Option<&ModuleSpec> {
        self.modules.get(&ModuleId::new(name))
    }

    /// All modules, in stable id order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ModuleSpec> {
        self.modules.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_table_v_families() {
        let c = Catalog::standard();
        // 10 vision + 10 text + 1 audio + 5 LLM + 2 distance + 3 classifiers.
        assert_eq!(c.modules.len(), 31);
        assert_eq!(
            c.iter()
                .filter(|m| m.kind == ModuleKind::VisionEncoder)
                .count(),
            10
        );
        assert_eq!(
            c.iter()
                .filter(|m| m.kind == ModuleKind::TextEncoder)
                .count(),
            10
        );
        assert_eq!(
            c.iter()
                .filter(|m| m.kind == ModuleKind::AudioEncoder)
                .count(),
            1
        );
        assert_eq!(
            c.iter()
                .filter(|m| m.kind == ModuleKind::LanguageModel)
                .count(),
            5
        );
    }

    #[test]
    fn param_counts_match_table_v() {
        let c = Catalog::standard();
        let check = |name: &str, mparams: f64| {
            let m = c
                .get_by_name(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(
                (m.mparams() - mparams).abs() < 1e-6,
                "{name}: {}",
                m.mparams()
            );
        };
        check("vision/RN50", 38.0);
        check("vision/RN50x64", 421.0);
        check("vision/ViT-B-16", 86.0);
        check("vision/ViT-L-14-336", 304.0);
        check("vision/OpenCLIP-ViT-H-14", 630.0);
        check("text/CLIP-B-16", 38.0);
        check("text/CLIP-RN50x64", 151.0);
        check("text/OpenCLIP-TRF", 302.0);
        check("audio/ViT-B", 85.0);
        check("llm/Vicuna-7B", 7000.0);
        check("llm/TinyLlama-1.1B", 1100.0);
        check("llm/GPT2", 124.0);
    }

    #[test]
    fn clip_totals_match_table_vi() {
        // Table VI "Centralized # Param" column: vision + text totals.
        let c = Catalog::standard();
        let total = |v: &str, t: &str| {
            c.get_by_name(v).unwrap().mparams() + c.get_by_name(t).unwrap().mparams()
        };
        assert_eq!(total("vision/RN50", "text/CLIP-RN50"), 76.0);
        assert_eq!(total("vision/RN101", "text/CLIP-RN101"), 94.0);
        assert_eq!(total("vision/RN50x4", "text/CLIP-RN50x4"), 146.0);
        assert_eq!(total("vision/RN50x16", "text/CLIP-RN50x16"), 253.0);
        assert_eq!(total("vision/RN50x64", "text/CLIP-RN50x64"), 572.0);
        assert_eq!(total("vision/ViT-B-32", "text/CLIP-B-32"), 126.0);
        assert_eq!(total("vision/ViT-B-16", "text/CLIP-B-16"), 124.0);
        assert_eq!(total("vision/ViT-L-14", "text/CLIP-L-14"), 389.0);
        assert_eq!(total("vision/ViT-L-14-336", "text/CLIP-L-14-336"), 389.0);
    }

    #[test]
    fn classifier_head_sizes_match_table_x_deltas() {
        let c = Catalog::standard();
        // Encoder VQA adds ~1K params; Food-101 classification ~52K.
        let vqa = c.get_by_name("head/classifier-vqa-coco-s").unwrap();
        assert!((900..1200).contains(&vqa.params), "{}", vqa.params);
        let food = c.get_by_name("head/classifier-food101").unwrap();
        assert!((50_000..55_000).contains(&food.params), "{}", food.params);
    }

    #[test]
    fn text_gflops_scale_with_params() {
        let c = Catalog::standard();
        let small = c.get_by_name("text/CLIP-B-16").unwrap();
        let large = c.get_by_name("text/CLIP-RN50x64").unwrap();
        assert!(large.gflops_per_unit > small.gflops_per_unit * 3.0);
        // 2 * 38e6 * 77 / 1e9 = 5.852
        assert!((small.gflops_per_unit - 5.852).abs() < 1e-3);
    }

    #[test]
    fn llms_are_fp16_and_memory_reflects_it() {
        let c = Catalog::standard();
        let vicuna = c.get_by_name("llm/Vicuna-7B").unwrap();
        assert_eq!(vicuna.precision, Precision::Fp16);
        assert_eq!(vicuna.weight_bytes(), 14_000_000_000);
        let gpt2 = c.get_by_name("llm/GPT2").unwrap();
        assert_eq!(gpt2.precision, Precision::Fp32);
    }

    #[test]
    fn lookup_missing_returns_none() {
        let c = Catalog::standard();
        assert!(c.get_by_name("vision/nonexistent").is_none());
        assert!(!c.modules.is_empty());
    }
}
