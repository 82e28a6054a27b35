//! Fleet cost models: what a busy device-second costs.
//!
//! A [`CostModel`] maps each device to a spend rate per busy second of
//! lane time — joules for an energy budget (see `s2m3_sim::energy` for
//! the power profiles such rates derive from), dollars for a metered
//! deployment, or a flat `1.0` to count raw device-seconds. Consumers
//! multiply a route's per-device compute seconds by these rates to
//! price a request before running it; the serving control plane's
//! budget engine (`s2m3_serve::budget`) uses exactly that product to
//! enforce a per-window fleet-wide cap online.
//!
//! The model is deliberately small: a rate table plus a default for
//! devices it does not name, so a partial table (say, only the metered
//! cloud box) still prices every route.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use s2m3_net::device::DeviceId;

/// Per-device spend rates: cost units per busy second.
///
/// The unit is the caller's choice (J/s, $/s, or dimensionless
/// device-seconds); a model only requires that all rates share it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Spend rate per busy second, by device.
    pub rate_per_device_s: BTreeMap<DeviceId, f64>,
    /// Rate applied to devices absent from the table.
    pub default_rate_per_s: f64,
}

impl CostModel {
    /// A model charging every device the same `rate` per busy second.
    /// `uniform(1.0)` prices routes in raw device-seconds.
    pub fn uniform(rate: f64) -> Self {
        CostModel {
            rate_per_device_s: BTreeMap::new(),
            default_rate_per_s: rate,
        }
    }

    /// Sets (or overrides) one device's rate.
    pub fn set_rate(&mut self, device: impl Into<DeviceId>, rate: f64) {
        self.rate_per_device_s.insert(device.into(), rate);
    }

    /// The spend rate of `device`, per busy second.
    pub fn rate(&self, device: &DeviceId) -> f64 {
        self.rate_per_device_s
            .get(device)
            .copied()
            .unwrap_or(self.default_rate_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prices_every_device_alike() {
        let m = CostModel::uniform(2.5);
        assert_eq!(m.rate(&"server".into()), 2.5);
        assert_eq!(m.rate(&"laptop".into()), 2.5);
    }

    #[test]
    fn named_rates_override_the_default() {
        let mut m = CostModel::uniform(1.0);
        m.set_rate("server", 230.0);
        assert_eq!(m.rate(&"server".into()), 230.0);
        assert_eq!(m.rate(&"jetson-a".into()), 1.0);
    }

    #[test]
    fn cost_model_json_roundtrip() {
        let mut m = CostModel::uniform(0.0);
        m.set_rate("server", 230.0);
        m.set_rate("desktop", 115.0);
        let json = serde_json::to_string(&m).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
