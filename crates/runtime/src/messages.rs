//! Wire messages exchanged by device workers.

use serde::{Deserialize, Serialize};

use s2m3_models::input::ModalityInput;
use s2m3_models::module::{ModuleId, ModuleKind};
use s2m3_net::device::DeviceId;
use s2m3_tensor::Matrix;

/// The node name the coordinating client registers under.
pub(crate) const COORDINATOR: &str = "__coordinator";

/// Envelope tag used by all runtime messages.
pub(crate) const TAG: &str = "s2m3-runtime";

/// Routing context a message carries so the head device can aggregate
/// without global state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct HeadContext {
    /// The head module to execute.
    pub head_module: ModuleId,
    /// The device hosting it for this request.
    pub head_device: DeviceId,
    /// How many encoder outputs the head must collect.
    pub expected_encoders: usize,
    /// Raw query for generative heads.
    pub query: Option<ModalityInput>,
}

/// Messages between the coordinator and device workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum RuntimeMsg {
    /// Run `module` on `input` and forward the embedding to the head.
    Encode {
        /// Request id.
        request: u64,
        /// Encoder module to run.
        module: ModuleId,
        /// The modality payload.
        input: ModalityInput,
        /// Head routing context.
        head: HeadContext,
    },
    /// An encoder output arriving at the head device.
    Embedding {
        /// Request id.
        request: u64,
        /// Producing module.
        from_module: ModuleId,
        /// Producing module's kind (the head dispatches on it).
        kind: ModuleKind,
        /// The embedding rows.
        data: Matrix,
        /// Head routing context (repeated so any arrival initializes the
        /// aggregation).
        head: HeadContext,
    },
    /// Final head output returning to the coordinator.
    Result {
        /// Request id.
        request: u64,
        /// Head scores/logits.
        output: Matrix,
    },
    /// A worker-side failure surfaced to the coordinator.
    Failure {
        /// Request id.
        request: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Stop the worker loop.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2m3_net::envelope::Envelope;

    #[test]
    fn messages_roundtrip_through_envelopes() {
        let msg = RuntimeMsg::Encode {
            request: 9,
            module: "vision/ViT-B-16".into(),
            input: ModalityInput::image("x"),
            head: HeadContext {
                head_module: "head/cosine".into(),
                head_device: "desktop".into(),
                expected_encoders: 2,
                query: None,
            },
        };
        let env = Envelope::encode("jetson-a".into(), "desktop".into(), TAG, &msg).unwrap();
        let back: RuntimeMsg = env.decode().unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn result_and_failure_roundtrip() {
        let r = RuntimeMsg::Result {
            request: 1,
            output: Matrix::zeros(1, 4),
        };
        let env = Envelope::encode("desktop".into(), COORDINATOR.into(), TAG, &r).unwrap();
        assert_eq!(env.decode::<RuntimeMsg>().unwrap(), r);
        let f = RuntimeMsg::Failure {
            request: 2,
            reason: "missing module".into(),
        };
        let env = Envelope::encode("desktop".into(), COORDINATOR.into(), TAG, &f).unwrap();
        assert_eq!(env.decode::<RuntimeMsg>().unwrap(), f);
    }
}
