//! Wire envelopes: the framing the distributed runtime exchanges.
//!
//! The payload is opaque bytes (the runtime serializes its own message
//! enum with serde); the envelope adds the addressing the bus routes by.

use serde::{Deserialize, Serialize};

use crate::device::DeviceId;

/// A routed message between two devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub src: DeviceId,
    /// Receiver.
    pub dst: DeviceId,
    /// Application-level tag (e.g. `"raw-input"`, `"embedding"`).
    pub tag: String,
    /// Serialized payload.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Creates an envelope, serializing `value` with JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure.
    pub fn encode<T: Serialize>(
        src: DeviceId,
        dst: DeviceId,
        tag: impl Into<String>,
        value: &T,
    ) -> Result<Self, serde_json::Error> {
        Ok(Envelope {
            src,
            dst,
            tag: tag.into(),
            payload: serde_json::to_vec(value)?,
        })
    }

    /// Deserializes the payload.
    ///
    /// # Errors
    ///
    /// Propagates deserialization failure.
    pub fn decode<'a, T: Deserialize<'a>>(&'a self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Ping {
        seq: u32,
        note: String,
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = Ping {
            seq: 7,
            note: "hello".into(),
        };
        let env = Envelope::encode("jetson-a".into(), "laptop".into(), "ping", &msg).unwrap();
        assert_eq!(env.tag, "ping");
        assert_eq!(env.decode::<Ping>().unwrap(), msg);
    }

    #[test]
    fn decode_wrong_type_errors() {
        let env = Envelope::encode("a".into(), "b".into(), "t", &42u32).unwrap();
        assert!(env.decode::<Ping>().is_err());
    }
}
