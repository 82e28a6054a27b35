//! Network topology: per-device access links composed into end-to-end
//! paths, mirroring the paper's home-PAN + MAN layout.

use std::collections::BTreeMap;

use crate::device::DeviceId;
use crate::link::LinkSpec;

/// The network half of the testbed.
///
/// Every device has an *access link* into the home network (wired
/// Ethernet, Wi-Fi, or a MAN uplink for the out-of-home server). The
/// end-to-end path between two devices composes their access links;
/// a device reaching itself is free.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    access: BTreeMap<DeviceId, LinkSpec>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a device's access link.
    pub fn set_access(&mut self, device: DeviceId, link: LinkSpec) {
        self.access.insert(device, link);
    }

    /// Whether `device` is known to the topology.
    pub(crate) fn contains(&self, device: &DeviceId) -> bool {
        self.access.contains_key(device)
    }

    /// The end-to-end path between two devices.
    ///
    /// # Errors
    ///
    /// Returns the unknown device id if either endpoint is unregistered.
    pub fn path(&self, a: &DeviceId, b: &DeviceId) -> Result<LinkSpec, DeviceId> {
        if a == b {
            return Ok(LinkSpec::loopback());
        }
        let la = self.access.get(a).ok_or_else(|| a.clone())?;
        let lb = self.access.get(b).ok_or_else(|| b.clone())?;
        Ok(la.compose(lb))
    }

    /// Seconds to move `bytes` from `a` to `b` (0 when `a == b`).
    ///
    /// # Errors
    ///
    /// Returns the unknown device id if either endpoint is unregistered.
    pub fn transfer_time(&self, a: &DeviceId, b: &DeviceId, bytes: u64) -> Result<f64, DeviceId> {
        Ok(self.path(a, b)?.transfer_time(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration as cal;

    fn topo() -> Topology {
        let mut t = Topology::new();
        t.set_access(
            "desktop".into(),
            LinkSpec::new(cal::PAN_WIRED.0, cal::PAN_WIRED.1),
        );
        t.set_access(
            "laptop".into(),
            LinkSpec::new(cal::PAN_WIFI.0, cal::PAN_WIFI.1),
        );
        t.set_access(
            "server".into(),
            LinkSpec::new(cal::MAN_ACCESS.0, cal::MAN_ACCESS.1),
        );
        t
    }

    #[test]
    fn same_device_transfer_is_free() {
        let t = topo();
        assert_eq!(
            t.transfer_time(&"laptop".into(), &"laptop".into(), 1 << 30)
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn paths_compose_access_links_symmetrically() {
        let t = topo();
        let ab = t.path(&"desktop".into(), &"laptop".into()).unwrap();
        let ba = t.path(&"laptop".into(), &"desktop".into()).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.bandwidth_bps, cal::PAN_WIFI.0);
        assert!((ab.latency_s - (cal::PAN_WIRED.1 + cal::PAN_WIFI.1)).abs() < 1e-12);
    }

    #[test]
    fn unknown_device_is_reported() {
        let t = topo();
        let err = t.path(&"desktop".into(), &"ghost".into()).unwrap_err();
        assert_eq!(err.as_str(), "ghost");
    }

    #[test]
    fn man_hop_is_slowest_path() {
        let t = topo();
        let to_server = t
            .transfer_time(&"laptop".into(), &"server".into(), 500 * 1024)
            .unwrap();
        let in_pan = t
            .transfer_time(&"laptop".into(), &"desktop".into(), 500 * 1024)
            .unwrap();
        assert!(to_server > in_pan);
    }
}
