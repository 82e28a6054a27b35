//! Real-socket transport: length-prefixed frames over localhost TCP.
//!
//! The paper's implementation "used socket programming for transmitting
//! input data and embeddings among devices" — this module provides the
//! same mechanism for the runtime. Every registered device binds a
//! listener on `127.0.0.1:0`; senders look the port up in a shared
//! registry and write one frame per envelope:
//!
//! ```text
//! [u32 LE frame length][JSON { src, dst, tag, payload }]
//! ```
//!
//! All registrations share one in-process registry (the analogue of the
//! paper's static device address book), so this transport demonstrates
//! the real wire path end-to-end while remaining test-friendly. Listener
//! threads run for the life of the process; see [`TcpNetwork::shutdown`]
//! for cooperative teardown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::device::DeviceId;
use crate::envelope::Envelope;
use crate::transport::{Mailbox, NetworkBus, TransportError};

#[derive(Serialize, Deserialize)]
struct WireFrame {
    src: String,
    dst: String,
    tag: String,
    #[serde(with = "serde_bytes_compat")]
    payload: Vec<u8>,
}

/// serde helper: `Vec<u8>` as a JSON array is wasteful but dependency-free;
/// keep it behind a module so a binary codec can swap in later.
mod serde_bytes_compat {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &[u8], s: S) -> Result<S::Ok, S::Error> {
        v.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<u8>, D::Error> {
        Vec::<u8>::deserialize(d)
    }
}

struct Inner {
    registry: RwLock<std::collections::HashMap<DeviceId, SocketAddr>>,
    stop: AtomicBool,
}

/// Localhost-TCP message bus.
#[derive(Clone)]
pub struct TcpNetwork {
    inner: Arc<Inner>,
}

impl Default for TcpNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpNetwork {
    /// Creates an empty bus.
    pub fn new() -> Self {
        TcpNetwork {
            inner: Arc::new(Inner {
                registry: RwLock::new(std::collections::HashMap::new()),
                stop: AtomicBool::new(false),
            }),
        }
    }

    /// Requests listener threads to exit after their next accepted (or
    /// self-poked) connection.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Poke every listener so blocked accepts wake up.
        let addrs: Vec<_> = self.inner.registry.read().values().copied().collect();
        for addr in addrs {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    /// The socket address a device listens on, if registered.
    pub fn address_of(&self, device: &DeviceId) -> Option<SocketAddr> {
        self.inner.registry.read().get(device).copied()
    }

    fn accept_loop(inner: Arc<Inner>, listener: TcpListener, tx: Sender<Envelope>) {
        for stream in listener.incoming() {
            if inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            loop {
                let mut len_buf = [0u8; 4];
                if stream.read_exact(&mut len_buf).is_err() {
                    break;
                }
                let len = u32::from_le_bytes(len_buf) as usize;
                if len == 0 || len > 64 * 1024 * 1024 {
                    break; // malformed or poke frame
                }
                let mut body = vec![0u8; len];
                if stream.read_exact(&mut body).is_err() {
                    break;
                }
                let Ok(frame) = serde_json::from_slice::<WireFrame>(&body) else {
                    continue;
                };
                let env = Envelope {
                    src: DeviceId::new(frame.src),
                    dst: DeviceId::new(frame.dst),
                    tag: frame.tag,
                    payload: Bytes::from(frame.payload),
                };
                if tx.send(env).is_err() {
                    return; // mailbox dropped
                }
            }
        }
    }
}

impl NetworkBus for TcpNetwork {
    fn register(&self, device: DeviceId) -> Mailbox {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost listener");
        let addr = listener.local_addr().expect("listener has an address");
        let (tx, rx) = unbounded();
        self.inner.registry.write().insert(device, addr);
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || TcpNetwork::accept_loop(inner, listener, tx));
        rx
    }

    fn send(&self, env: Envelope) -> Result<(), TransportError> {
        let addr = self
            .address_of(&env.dst)
            .ok_or_else(|| TransportError::UnknownDevice(env.dst.clone()))?;
        let frame = WireFrame {
            src: env.src.as_str().to_string(),
            dst: env.dst.as_str().to_string(),
            tag: env.tag.clone(),
            payload: env.payload.to_vec(),
        };
        let body = serde_json::to_vec(&frame)
            .map_err(|_| TransportError::Disconnected(env.dst.clone()))?;
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|_| TransportError::Disconnected(env.dst.clone()))?;
        let mut buf = Vec::with_capacity(4 + body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        stream
            .write_all(&buf)
            .map_err(|_| TransportError::Disconnected(env.dst.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_roundtrip() {
        let net = TcpNetwork::new();
        let rx = net.register("b".into());
        let env = Envelope::encode("a".into(), "b".into(), "ping", &42u32).unwrap();
        net.send(env.clone()).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, env);
        net.shutdown();
    }

    #[test]
    fn unknown_destination_errors() {
        let net = TcpNetwork::new();
        let env = Envelope::encode("a".into(), "ghost".into(), "ping", &1u32).unwrap();
        assert!(matches!(
            net.send(env),
            Err(TransportError::UnknownDevice(_))
        ));
    }

    #[test]
    fn many_messages_in_order_per_connection() {
        let net = TcpNetwork::new();
        let rx = net.register("sink".into());
        for i in 0..20u32 {
            let env = Envelope::encode("src".into(), "sink".into(), "seq", &i).unwrap();
            net.send(env).unwrap();
        }
        let mut got: Vec<u32> = (0..20)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .decode()
                    .unwrap()
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        net.shutdown();
    }

    #[test]
    fn binary_payloads_survive() {
        let net = TcpNetwork::new();
        let rx = net.register("b".into());
        let blob: Vec<u8> = (0..=255u8).collect();
        let env = Envelope {
            src: "a".into(),
            dst: "b".into(),
            tag: "blob".into(),
            payload: Bytes::from(blob.clone()),
        };
        net.send(env).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload.to_vec(), blob);
        net.shutdown();
    }
}
