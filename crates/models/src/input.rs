//! Modality payloads: what a request carries into each encoder.
//!
//! Payloads have two faces:
//! - a **wire size** in bytes, consumed by the network model when the raw
//!   input must travel from the requester to the device hosting the encoder;
//! - **synthetic content** (a small feature matrix), consumed by the
//!   executable modules in [`crate::exec`] so that split and centralized
//!   deployments can be checked for bit-identical outputs.

use serde::{Deserialize, Serialize};

use s2m3_tensor::Matrix;

/// Dimensionality of the synthetic raw-feature space all inputs live in.
/// Small on purpose: the runtime's compute must be real but cheap.
pub const RAW_FEATURE_DIM: usize = 64;

/// An input data modality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Modality {
    /// A single image (JPEG-sized payload).
    Image,
    /// One or more text prompts (tiny payload).
    Text,
    /// An audio clip (compressed waveform payload).
    Audio,
}

impl Modality {
    /// Typical wire size of one raw item of this modality, matching the
    /// magnitudes of the paper's testbed (224 px JPEG, short prompt,
    /// ~10 s audio clip).
    pub(crate) fn typical_item_bytes(self) -> u64 {
        match self {
            Modality::Image => 500 * 1024,
            Modality::Text => 256,
            Modality::Audio => 320 * 1024,
        }
    }
}

impl std::fmt::Display for Modality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Modality::Image => "image",
            Modality::Text => "text",
            Modality::Audio => "audio",
        })
    }
}

/// One modality's worth of input for a single inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModalityInput {
    /// Which modality this is.
    pub modality: Modality,
    /// Wire size in bytes when shipped raw to a remote encoder.
    pub bytes: u64,
    /// Work units the encoder will perform (1 image; `n` prompts for
    /// zero-shot retrieval against `n` candidate classes; 1 audio clip).
    pub units: f64,
    /// Synthetic content: `units x RAW_FEATURE_DIM` features.
    pub content: Matrix,
}

impl ModalityInput {
    /// A single image, with content derived deterministically from `label`.
    pub fn image(label: &str) -> Self {
        ModalityInput {
            modality: Modality::Image,
            bytes: Modality::Image.typical_item_bytes(),
            units: 1.0,
            content: Matrix::seeded_gaussian(
                &format!("input/image/{label}"),
                1,
                RAW_FEATURE_DIM,
                1.0,
            ),
        }
    }

    /// `n` text prompts (e.g. one per candidate class in zero-shot
    /// retrieval), derived deterministically from `label`.
    pub fn text_prompts(label: &str, n: usize) -> Self {
        ModalityInput {
            modality: Modality::Text,
            bytes: Modality::Text.typical_item_bytes() * n as u64,
            units: n as f64,
            content: Matrix::seeded_gaussian(
                &format!("input/text/{label}"),
                n.max(1),
                RAW_FEATURE_DIM,
                1.0,
            ),
        }
    }

    /// A single audio clip derived deterministically from `label`.
    pub fn audio(label: &str) -> Self {
        ModalityInput {
            modality: Modality::Audio,
            bytes: Modality::Audio.typical_item_bytes(),
            units: 1.0,
            content: Matrix::seeded_gaussian(
                &format!("input/audio/{label}"),
                1,
                RAW_FEATURE_DIM,
                1.0,
            ),
        }
    }

    /// Builds an input with explicit content (used by the benchmark
    /// datasets, which synthesize class-structured samples).
    pub fn with_content(modality: Modality, content: Matrix) -> Self {
        let units = content.rows() as f64;
        ModalityInput {
            modality,
            bytes: modality.typical_item_bytes() * content.rows().max(1) as u64,
            units,
            content,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes_ordered_sensibly() {
        assert!(Modality::Text.typical_item_bytes() < Modality::Audio.typical_item_bytes());
        assert!(Modality::Audio.typical_item_bytes() <= Modality::Image.typical_item_bytes());
    }

    #[test]
    fn image_input_is_deterministic_single_unit() {
        let a = ModalityInput::image("cat");
        let b = ModalityInput::image("cat");
        assert_eq!(a, b);
        assert_eq!(a.units, 1.0);
        assert_eq!(a.content.shape(), (1, RAW_FEATURE_DIM));
        assert_ne!(a.content, ModalityInput::image("dog").content);
    }

    #[test]
    fn text_prompts_scale_units_and_bytes() {
        let t = ModalityInput::text_prompts("food101", 101);
        assert_eq!(t.units, 101.0);
        assert_eq!(t.content.rows(), 101);
        assert_eq!(t.bytes, 256 * 101);
    }

    #[test]
    fn with_content_infers_units() {
        let m = Matrix::zeros(7, RAW_FEATURE_DIM);
        let i = ModalityInput::with_content(Modality::Audio, m);
        assert_eq!(i.units, 7.0);
        assert_eq!(i.bytes, Modality::Audio.typical_item_bytes() * 7);
    }

    #[test]
    fn modality_display_and_all() {
        for (m, name) in [
            (Modality::Image, "image"),
            (Modality::Text, "text"),
            (Modality::Audio, "audio"),
        ] {
            assert_eq!(m.to_string(), name);
        }
    }
}
