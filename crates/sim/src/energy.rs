//! Energy accounting over simulated timelines (the paper's future-work
//! metric, Sec. VII: "the power consumption is still one of the key
//! factors for the battery life of edge devices").
//!
//! Per-device power is modeled as `idle + (active − idle)` during busy
//! spans; a transfer charges the radio at a fixed power on the span's
//! device, which is the *receiving* end (a span records one device —
//! see `GanttSpan::device` — so the sender's radio is not charged).
//! The profile numbers are typical published figures for the Table III
//! hardware class (Jetson Nano 10 W mode, M-series laptop package power,
//! desktop CPU under AVX load, P40 server board + host).
//!
//! These profiles also price the serve-time budget cap: with the
//! `Energy` metric, `s2m3_serve::budget` charges each dispatch
//! `(active_w − idle_w)` joules per busy second, rated from
//! [`default_profiles`], enforcing a per-window joule budget online.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use s2m3_net::device::DeviceId;

use crate::report::{PhaseTag, SimReport};

/// Power profile of one device, watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Idle draw.
    pub idle_w: f64,
    /// Draw while executing a module.
    pub active_w: f64,
    /// Extra draw while transmitting/receiving.
    pub radio_w: f64,
}

/// Typical profiles for the Table III device classes.
pub fn default_profiles() -> BTreeMap<DeviceId, PowerProfile> {
    let mut m = BTreeMap::new();
    m.insert(
        "server".into(),
        PowerProfile {
            idle_w: 90.0,
            active_w: 320.0,
            radio_w: 5.0,
        },
    );
    m.insert(
        "desktop".into(),
        PowerProfile {
            idle_w: 35.0,
            active_w: 150.0,
            radio_w: 3.0,
        },
    );
    m.insert(
        "laptop".into(),
        PowerProfile {
            idle_w: 8.0,
            active_w: 40.0,
            radio_w: 2.0,
        },
    );
    m.insert(
        "jetson-a".into(),
        PowerProfile {
            idle_w: 2.0,
            active_w: 10.0,
            radio_w: 1.5,
        },
    );
    m.insert(
        "jetson-b".into(),
        PowerProfile {
            idle_w: 2.0,
            active_w: 10.0,
            radio_w: 1.5,
        },
    );
    m
}

/// Energy breakdown of one simulation, joules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Active (compute + load) energy per device.
    pub active_j: BTreeMap<DeviceId, f64>,
    /// Radio energy per device.
    pub radio_j: BTreeMap<DeviceId, f64>,
    /// Idle energy per device over the makespan.
    pub idle_j: BTreeMap<DeviceId, f64>,
}

impl EnergyReport {
    /// Total *marginal* energy (excluding idle draw — what the inference
    /// itself cost).
    pub fn marginal_j(&self) -> f64 {
        self.active_j.values().sum::<f64>() + self.radio_j.values().sum::<f64>()
    }
}

/// Computes the energy of a simulated timeline under `profiles`.
/// Devices missing from `profiles` contribute nothing.
pub fn energy(report: &SimReport, profiles: &BTreeMap<DeviceId, PowerProfile>) -> EnergyReport {
    // Joules per device of the span table, summed in span order; `None`
    // until something is charged, so an untouched device gets no entry.
    let devices = report.spans.devices();
    let profile_of: Vec<Option<&PowerProfile>> = devices.iter().map(|d| profiles.get(d)).collect();
    let mut active: Vec<Option<f64>> = vec![None; devices.len()];
    let mut radio = active.clone();
    for span in report.spans.rows() {
        let d = span.device as usize;
        let Some(p) = profile_of[d] else {
            continue;
        };
        let dur = (span.end - span.start).max(0.0);
        match span.phase {
            PhaseTag::Encode | PhaseTag::Head | PhaseTag::ModelLoading => {
                *active[d].get_or_insert(0.0) += (p.active_w - p.idle_w) * dur;
            }
            PhaseTag::InputTx | PhaseTag::OutputTx => {
                *radio[d].get_or_insert(0.0) += p.radio_w * dur;
            }
        }
    }
    let by_name = |joules: Vec<Option<f64>>| {
        devices
            .iter()
            .zip(joules)
            .filter_map(|(d, j)| Some((d.clone(), j?)))
            .collect()
    };
    let mut out = EnergyReport {
        active_j: by_name(active),
        radio_j: by_name(radio),
        idle_j: BTreeMap::new(),
    };
    for (d, p) in profiles {
        *out.idle_j.entry(d.clone()).or_default() += p.idle_w * report.makespan;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, GanttSpan, Phase, SimConfig};
    use s2m3_core::plan::Plan;
    use s2m3_core::problem::Instance;

    fn run(name: &str, candidates: usize) -> (SimReport, EnergyReport) {
        let i = Instance::single_model(name, candidates).unwrap();
        let q = i.request(0, name).unwrap();
        let plan = Plan::greedy(&i, vec![q]).unwrap();
        let r = simulate(&i, &plan, &SimConfig::default()).unwrap();
        let e = energy(&r, &default_profiles());
        (r, e)
    }

    #[test]
    fn energy_is_positive_and_dominated_by_compute() {
        let (_, e) = run("CLIP ViT-B/16", 101);
        assert!(e.marginal_j() > 0.0);
        let active: f64 = e.active_j.values().sum();
        let radio: f64 = e.radio_j.values().sum();
        assert!(
            active > 10.0 * radio,
            "active {active:.1} J vs radio {radio:.1} J"
        );
    }

    #[test]
    fn edge_marginal_energy_below_cloud_active_power_budget() {
        // A ~2.5 s inference on laptop+desktop draws far less marginal
        // energy than 2.1 s on a 320 W server — the battery-life argument
        // of the paper's future work.
        let (_, edge) = run("CLIP ViT-B/16", 101);
        let server_profile = default_profiles()[&"server".into()];
        let cloud_joules = (server_profile.active_w - server_profile.idle_w) * 2.1;
        assert!(
            edge.marginal_j() < cloud_joules,
            "edge {:.1} J vs cloud {cloud_joules:.1} J",
            edge.marginal_j()
        );
    }

    #[test]
    fn a_transfer_charges_only_the_receiving_device() {
        let r = SimReport {
            spans: vec![GanttSpan {
                device: "laptop".into(),
                request: Some(0),
                phase: Phase::OutputTx("vision/ViT-B-16".into()),
                start: 1.0,
                end: 3.5,
            }]
            .into(),
            makespan: 3.5,
            ..SimReport::default()
        };
        let profiles = default_profiles();
        let e = energy(&r, &profiles);
        let laptop: DeviceId = "laptop".into();
        let expected = BTreeMap::from([(laptop.clone(), profiles[&laptop].radio_w * 2.5)]);
        assert_eq!(e.radio_j, expected);
        assert!(e.active_j.is_empty());
    }

    #[test]
    fn unknown_devices_are_ignored() {
        let (r, _) = run("CLIP ViT-B/16", 10);
        let e = energy(&r, &BTreeMap::new());
        assert!(e.active_j.is_empty() && e.radio_j.is_empty() && e.idle_j.is_empty());
    }
}
