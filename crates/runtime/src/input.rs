//! Request inputs: one payload per encoder modality plus the optional
//! raw query consumed by generative heads.

use s2m3_models::input::{Modality, ModalityInput};
use s2m3_models::module::ModuleKind;
use s2m3_models::zoo::{ModelSpec, Task};

/// Everything a single inference request carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestInput {
    /// One input per modality the model's encoders consume.
    pub modalities: Vec<ModalityInput>,
    /// Raw question/prompt for generative (LLM) heads.
    pub query: Option<ModalityInput>,
}

impl RequestInput {
    /// Builds a synthetic input matching `model`'s encoder set, seeded by
    /// `label`; `candidates` controls the number of text prompts for
    /// retrieval/alignment tasks.
    pub fn synthetic(model: &ModelSpec, label: &str, candidates: usize) -> Self {
        let mut modalities = Vec::new();
        for enc in model.encoders() {
            let m = match enc.kind.modality() {
                Some(m) => m,
                None => continue,
            };
            let input = match m {
                Modality::Image => ModalityInput::image(label),
                Modality::Audio => ModalityInput::audio(label),
                Modality::Text => match model.task {
                    Task::EncoderVqa => ModalityInput::text_prompts(label, 1),
                    _ => ModalityInput::text_prompts(label, candidates.max(1)),
                },
            };
            modalities.push(input);
        }
        let query = match model.task {
            Task::DecoderVqa => Some(ModalityInput::text_prompts(&format!("{label}/query"), 1)),
            _ => None,
        };
        RequestInput { modalities, query }
    }

    /// The input for a given encoder kind, if present.
    pub(crate) fn for_kind(&self, kind: ModuleKind) -> Option<&ModalityInput> {
        let m = kind.modality()?;
        self.modalities.iter().find(|i| i.modality == m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_models::zoo::Zoo;

    #[test]
    fn synthetic_inputs_cover_model_modalities() {
        let zoo = Zoo::standard();
        let clip = zoo.model("CLIP ViT-B/16").unwrap();
        let i = RequestInput::synthetic(clip, "t", 10);
        assert_eq!(i.modalities.len(), 2);
        assert!(i.query.is_none());
        assert_eq!(i.for_kind(ModuleKind::TextEncoder).unwrap().units, 10.0);
        assert!(i.for_kind(ModuleKind::AudioEncoder).is_none());

        let imagebind = zoo.model("ImageBind").unwrap();
        let i = RequestInput::synthetic(imagebind, "t", 16);
        assert_eq!(i.modalities.len(), 3);

        let llava = zoo.model("LLaVA-v1.5-7B").unwrap();
        let i = RequestInput::synthetic(llava, "t", 0);
        assert_eq!(i.modalities.len(), 1);
        assert!(i.query.is_some());
    }

    #[test]
    fn encoder_vqa_gets_single_question_prompt() {
        let zoo = Zoo::standard();
        let vqa = zoo.model("Encoder-only VQA (Small)").unwrap();
        let i = RequestInput::synthetic(vqa, "q", 101);
        assert_eq!(i.for_kind(ModuleKind::TextEncoder).unwrap().units, 1.0);
    }

    #[test]
    fn synthetic_is_deterministic() {
        let zoo = Zoo::standard();
        let clip = zoo.model("CLIP ViT-B/16").unwrap();
        assert_eq!(
            RequestInput::synthetic(clip, "x", 5),
            RequestInput::synthetic(clip, "x", 5)
        );
        assert_ne!(
            RequestInput::synthetic(clip, "x", 5),
            RequestInput::synthetic(clip, "y", 5)
        );
    }
}
