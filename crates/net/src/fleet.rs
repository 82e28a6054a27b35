//! The assembled testbed: devices + topology + default requester.

use serde::{Deserialize, Serialize};

use crate::calibration as cal;
use crate::device::{DeviceId, DeviceSpec};
use crate::link::LinkSpec;
use crate::topology::Topology;

/// A concrete deployment environment: the device set `N`, the network
/// connecting it, and the device that originates requests (`n_q`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fleet {
    devices: Vec<DeviceSpec>,
    topology: Topology,
    requester: DeviceId,
}

impl Fleet {
    /// Builds a fleet from parts.
    ///
    /// # Errors
    ///
    /// Returns a message if the requester is not among the devices or a
    /// device is missing from the topology.
    pub fn new(
        devices: Vec<DeviceSpec>,
        topology: Topology,
        requester: DeviceId,
    ) -> Result<Self, String> {
        if !devices.iter().any(|d| d.id == requester) {
            return Err(format!("requester {requester} is not in the fleet"));
        }
        for d in &devices {
            if !topology.contains(&d.id) {
                return Err(format!("device {} missing from topology", d.id));
            }
        }
        Ok(Fleet {
            devices,
            topology,
            requester,
        })
    }

    /// The paper's five-device testbed (Table III): GPU server over MAN,
    /// wired desktop, Wi-Fi laptop, wired Jetson B, Wi-Fi Jetson A.
    /// Jetson A is the default requester.
    pub fn standard_testbed() -> Self {
        let devices = vec![
            DeviceSpec::server(),
            DeviceSpec::desktop(),
            DeviceSpec::laptop(),
            DeviceSpec::jetson("jetson-b"),
            DeviceSpec::jetson("jetson-a"),
        ];
        let mut topology = Topology::new();
        topology.set_access(
            "server".into(),
            LinkSpec::new(cal::MAN_ACCESS.0, cal::MAN_ACCESS.1),
        );
        topology.set_access(
            "desktop".into(),
            LinkSpec::new(cal::PAN_WIRED.0, cal::PAN_WIRED.1),
        );
        topology.set_access(
            "laptop".into(),
            LinkSpec::new(cal::PAN_WIFI.0, cal::PAN_WIFI.1),
        );
        topology.set_access(
            "jetson-b".into(),
            LinkSpec::new(cal::PAN_WIRED.0, cal::PAN_WIRED.1),
        );
        topology.set_access(
            "jetson-a".into(),
            LinkSpec::new(cal::PAN_WIFI.0, cal::PAN_WIFI.1),
        );
        Fleet::new(devices, topology, "jetson-a".into()).expect("standard testbed is valid")
    }

    /// The edge-only fleet (no server) the paper uses for its headline
    /// S2M3 results: desktop, laptop, both Jetsons; requester Jetson A.
    pub fn edge_testbed() -> Self {
        Self::standard_testbed().without(&["server"])
    }

    /// The testbed named `"edge"` ([`Fleet::edge_testbed`]) or
    /// `"standard"` ([`Fleet::standard_testbed`]); `None` for any other.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "edge" => Some(Self::edge_testbed()),
            "standard" => Some(Self::standard_testbed()),
            _ => None,
        }
    }

    /// A copy of this fleet without the named devices.
    ///
    /// Used for Table IX's device-availability sweeps. Keeps the same
    /// requester; panics in `Fleet::new` are avoided by validating.
    pub fn without(&self, names: &[&str]) -> Self {
        let devices: Vec<_> = self
            .devices
            .iter()
            .filter(|d| !names.contains(&d.id.as_str()))
            .cloned()
            .collect();
        Fleet::new(devices, self.topology.clone(), self.requester.clone())
            .expect("subset fleet must retain the requester")
    }

    /// A copy restricted to exactly the named devices.
    ///
    /// # Errors
    ///
    /// Returns a message if the requester would be excluded or a name is
    /// unknown.
    pub fn restricted_to(&self, names: &[&str]) -> Result<Self, String> {
        for n in names {
            if !self.devices.iter().any(|d| d.id.as_str() == *n) {
                return Err(format!("unknown device {n}"));
            }
        }
        let devices: Vec<_> = self
            .devices
            .iter()
            .filter(|d| names.contains(&d.id.as_str()))
            .cloned()
            .collect();
        Fleet::new(devices, self.topology.clone(), self.requester.clone())
    }

    /// The device set `N`.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Looks up a device by name.
    pub fn device(&self, name: &str) -> Option<&DeviceSpec> {
        self.devices.iter().find(|d| d.id.as_str() == name)
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The request-originating device `n_q`.
    pub fn requester(&self) -> &DeviceId {
        &self.requester
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_testbed_matches_table_iii() {
        let f = Fleet::standard_testbed();
        assert_eq!(f.len(), 5);
        for name in ["server", "desktop", "laptop", "jetson-a", "jetson-b"] {
            assert!(f.device(name).is_some(), "missing {name}");
        }
        assert_eq!(f.requester().as_str(), "jetson-a");
    }

    #[test]
    fn edge_testbed_excludes_server() {
        let f = Fleet::edge_testbed();
        assert_eq!(f.len(), 4);
        assert!(f.device("server").is_none());
        assert_eq!(f.requester().as_str(), "jetson-a");
    }

    #[test]
    fn by_name_knows_both_testbeds_and_nothing_else() {
        assert_eq!(Fleet::by_name("edge").unwrap().len(), 4);
        assert_eq!(Fleet::by_name("standard").unwrap().len(), 5);
        assert!(Fleet::by_name("mars").is_none());
    }

    #[test]
    fn requester_must_be_member() {
        let f = Fleet::standard_testbed();
        let topology = f.topology().clone();
        assert!(Fleet::new(f.devices().to_vec(), topology, "ghost".into()).is_err());
        assert!(f.restricted_to(&["desktop", "laptop"]).is_err()); // loses jetson-a
        assert!(f.restricted_to(&["jetson-a", "laptop"]).is_ok());
    }

    #[test]
    fn topology_covers_all_devices() {
        let f = Fleet::standard_testbed();
        for d in f.devices() {
            for e in f.devices() {
                assert!(f.topology().transfer_time(&d.id, &e.id, 1024).is_ok());
            }
        }
    }

    #[test]
    fn restricted_to_rejects_unknown_names() {
        let f = Fleet::standard_testbed();
        assert!(f.restricted_to(&["jetson-a", "mainframe"]).is_err());
    }
}
