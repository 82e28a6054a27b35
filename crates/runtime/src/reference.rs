//! Centralized single-process reference execution.
//!
//! Runs a model exactly as a monolithic deployment would: every encoder
//! in sequence in one address space, then the head. Because modules are
//! pure, this is the ground truth the distributed runtime is compared
//! against (the Table VIII "no accuracy change" check).

use s2m3_models::exec::{ExecError, Executable};
use s2m3_models::zoo::ModelSpec;
use s2m3_tensor::Matrix;

use crate::input::RequestInput;

/// Runs `model` on `input` in-process and returns the head output.
///
/// # Errors
///
/// [`ExecError`] if the input lacks a required modality or a module
/// misbehaves.
pub fn run_model(model: &ModelSpec, input: &RequestInput) -> Result<Matrix, ExecError> {
    let mut encodings = Vec::new();
    for enc_spec in model.encoders() {
        let exec = Executable::for_spec(enc_spec)?;
        let payload = input
            .for_kind(enc_spec.kind)
            .ok_or(ExecError::MissingEncoding(enc_spec.kind))?;
        encodings.push((enc_spec.kind, exec.encode(payload)?));
    }
    let head = Executable::for_spec(model.head())?;
    head.run_head(&encodings, input.query.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_models::zoo::Zoo;

    #[test]
    fn reference_runs_every_zoo_model() {
        let zoo = Zoo::standard();
        for model in zoo.models() {
            let input = RequestInput::synthetic(model, "ref", 8);
            let out = run_model(model, &input).unwrap_or_else(|e| panic!("{}: {e}", model.name));
            assert!(out.rows() >= 1 && out.cols() >= 1, "{}", model.name);
        }
    }

    #[test]
    fn missing_modality_errors() {
        let zoo = Zoo::standard();
        let m = zoo.model("CLIP ViT-B/16").unwrap();
        let mut input = RequestInput::synthetic(m, "x", 8);
        input.modalities.clear();
        assert!(run_model(m, &input).is_err());
    }
}
