//! Device worker: hosts placed modules, encodes, aggregates, runs heads.

use std::collections::{BTreeMap, HashMap};
use std::thread::JoinHandle;

use s2m3_models::exec::Executable;
use s2m3_models::module::{ModuleId, ModuleKind};
use s2m3_net::device::DeviceId;
use s2m3_net::envelope::Envelope;
use s2m3_net::transport::{InMemoryNetwork, Mailbox};
use s2m3_tensor::Matrix;

use crate::messages::{HeadContext, RuntimeMsg, COORDINATOR, TAG};

struct Aggregation {
    collected: Vec<(ModuleKind, Matrix)>,
    head: HeadContext,
}

pub(crate) struct Worker {
    device: DeviceId,
    modules: BTreeMap<ModuleId, Executable>,
    net: InMemoryNetwork,
    mailbox: Mailbox,
    pending: HashMap<u64, Aggregation>,
}

impl Worker {
    pub(crate) fn spawn(
        device: DeviceId,
        modules: BTreeMap<ModuleId, Executable>,
        net: InMemoryNetwork,
        mailbox: Mailbox,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut w = Worker {
                device,
                modules,
                net,
                mailbox,
                pending: HashMap::new(),
            };
            w.run();
        })
    }

    fn run(&mut self) {
        while let Ok(env) = self.mailbox.recv() {
            let msg: RuntimeMsg = match env.decode() {
                Ok(m) => m,
                Err(_) => continue, // not a runtime message; ignore
            };
            match msg {
                RuntimeMsg::Shutdown => break,
                RuntimeMsg::Encode {
                    request,
                    module,
                    input,
                    head,
                } => self.handle_encode(request, &module, &input, head),
                RuntimeMsg::Embedding {
                    request,
                    from_module: _,
                    kind,
                    data,
                    head,
                } => self.handle_embedding(request, kind, data, head),
                // Results/failures are coordinator-bound; a worker
                // receiving one is a routing bug we surface by ignoring.
                RuntimeMsg::Result { .. } | RuntimeMsg::Failure { .. } => {}
            }
        }
    }

    fn fail(&self, request: u64, reason: String) {
        let msg = RuntimeMsg::Failure { request, reason };
        if let Ok(env) = Envelope::encode(self.device.clone(), COORDINATOR.into(), TAG, &msg) {
            let _ = self.net.send(env);
        }
    }

    fn handle_encode(
        &mut self,
        request: u64,
        module: &ModuleId,
        input: &s2m3_models::input::ModalityInput,
        head: HeadContext,
    ) {
        let Some(exec) = self.modules.get(module) else {
            self.fail(
                request,
                format!("{}: module {module} not hosted", self.device),
            );
            return;
        };
        let kind = exec.spec().kind;
        match exec.encode(input) {
            Ok(embedding) => {
                let msg = RuntimeMsg::Embedding {
                    request,
                    from_module: module.clone(),
                    kind,
                    data: embedding,
                    head: head.clone(),
                };
                match Envelope::encode(self.device.clone(), head.head_device, TAG, &msg) {
                    Ok(env) => {
                        if let Err(e) = self.net.send(env) {
                            self.fail(request, format!("embedding send failed: {e}"));
                        }
                    }
                    Err(e) => self.fail(request, format!("embedding encode failed: {e}")),
                }
            }
            Err(e) => self.fail(request, format!("{module} encode error: {e}")),
        }
    }

    fn handle_embedding(
        &mut self,
        request: u64,
        kind: ModuleKind,
        data: Matrix,
        head: HeadContext,
    ) {
        let expected = head.expected_encoders;
        let agg = self.pending.entry(request).or_insert_with(|| Aggregation {
            collected: Vec::with_capacity(expected),
            head,
        });
        agg.collected.push((kind, data));
        if agg.collected.len() < expected {
            return;
        }
        let agg = self.pending.remove(&request).expect("just inserted");
        let Some(exec) = self.modules.get(&agg.head.head_module) else {
            self.fail(
                request,
                format!("{}: head {} not hosted", self.device, agg.head.head_module),
            );
            return;
        };
        match exec.run_head(&agg.collected, agg.head.query.as_ref()) {
            Ok(output) => {
                let msg = RuntimeMsg::Result { request, output };
                match Envelope::encode(self.device.clone(), COORDINATOR.into(), TAG, &msg) {
                    Ok(env) => {
                        if let Err(e) = self.net.send(env) {
                            // Coordinator gone; nothing more to do.
                            let _ = e;
                        }
                    }
                    Err(e) => self.fail(request, format!("result encode failed: {e}")),
                }
            }
            Err(e) => self.fail(request, format!("head error: {e}")),
        }
    }
}
