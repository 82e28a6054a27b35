//! The in-process message bus device workers exchange envelopes over.
//!
//! The paper's implementation uses socket programming between physical
//! machines. The runtime here hosts every "device" as a thread in one
//! process, so the bus is a registry of std channels: one mailbox per
//! device, delivering each sender's envelopes in send order. Transfer
//! *time* is the simulator's business ([`crate::Topology::transfer_time`]);
//! the bus only moves the bytes.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock};

use crate::device::DeviceId;
use crate::envelope::Envelope;

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Destination device is not registered.
    UnknownDevice(DeviceId),
    /// The destination's receiver has been dropped.
    Disconnected(DeviceId),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            TransportError::Disconnected(d) => write!(f, "device {d} disconnected"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A device's mailbox.
pub type Mailbox = Receiver<Envelope>;

/// In-process message bus.
///
/// Cloneable handle; all clones share the same registry.
#[derive(Clone, Default)]
pub struct InMemoryNetwork {
    registry: Arc<RwLock<HashMap<DeviceId, Sender<Envelope>>>>,
}

impl InMemoryNetwork {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a device and returns its mailbox.
    ///
    /// Re-registering replaces the previous mailbox.
    pub fn register(&self, device: DeviceId) -> Mailbox {
        let (tx, rx) = channel();
        self.registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(device, tx);
        rx
    }

    /// Sends an envelope to its destination.
    ///
    /// # Errors
    ///
    /// [`TransportError::UnknownDevice`] if the destination never
    /// registered; [`TransportError::Disconnected`] if its mailbox is gone.
    pub fn send(&self, env: Envelope) -> Result<(), TransportError> {
        let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
        match registry.get(&env.dst) {
            Some(tx) => tx
                .send(env)
                .map_err(|e| TransportError::Disconnected(e.0.dst)),
            None => Err(TransportError::UnknownDevice(env.dst)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let net = InMemoryNetwork::new();
        let rx = net.register("b".into());
        let env = Envelope::encode("a".into(), "b".into(), "ping", &1u32).unwrap();
        net.send(env.clone()).unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(got, env);
    }

    #[test]
    fn unknown_destination_errors() {
        let net = InMemoryNetwork::new();
        let env = Envelope::encode("a".into(), "ghost".into(), "ping", &1u32).unwrap();
        assert!(matches!(
            net.send(env),
            Err(TransportError::UnknownDevice(_))
        ));
    }

    #[test]
    fn dropped_mailbox_reports_disconnected() {
        let net = InMemoryNetwork::new();
        let rx = net.register("b".into());
        drop(rx);
        let env = Envelope::encode("a".into(), "b".into(), "ping", &1u32).unwrap();
        assert!(matches!(
            net.send(env),
            Err(TransportError::Disconnected(_))
        ));
    }

    #[test]
    fn cross_thread_delivery() {
        let net = InMemoryNetwork::new();
        let rx = net.register("b".into());
        let sender = net;
        let handle = std::thread::spawn(move || {
            for i in 0..16u32 {
                let env = Envelope::encode("a".into(), "b".into(), "seq", &i).unwrap();
                sender.send(env).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..16 {
            got.push(rx.recv().unwrap().decode::<u32>().unwrap());
        }
        handle.join().unwrap();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }
}
