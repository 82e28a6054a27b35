//! The sweep grid: a base serving scenario fanned out over
//! (seed × arrival-rate-scale × fleet-size) cells.

use serde::{Deserialize, Serialize};

use s2m3_net::fleet::Fleet;
use s2m3_serve::ServeScenario;
use s2m3_sim::workload::ArrivalProcess;

use crate::SweepError;

/// A Monte Carlo sweep over a base [`ServeScenario`].
///
/// Every (rate-scale, fleet-size) pair is one *cell*; each cell runs
/// `seeds` independent replicas whose seed labels derive from
/// `base.seed` by replica index — the *same* per-replica label in every
/// cell, so cells are compared under common random numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// The scenario each replica derives from (its `seed`,
    /// `initial_devices`, and arrival rates are overridden per cell).
    pub base: ServeScenario,
    /// Seeded replicas per cell (≥1).
    pub seeds: usize,
    /// Multipliers applied to every arrival rate of the base workload
    /// (1.0 = as configured). Each entry is one grid column.
    pub rate_scales: Vec<f64>,
    /// Active-fleet sizes at t = 0: each entry keeps the requester plus
    /// the first `size - 1` other devices of `base.initial_devices`.
    pub fleet_sizes: Vec<usize>,
    /// Width of the per-timestep aggregation bins, virtual seconds.
    pub bin_s: f64,
    /// Deadline-miss budget for the capacity frontier (e.g. `0.01` for
    /// "max sustainable rate at <1% miss").
    pub miss_budget: f64,
    /// Worker threads for replica execution (0 = all available cores).
    /// Execution detail only: the aggregate report is byte-identical at
    /// any thread count.
    pub threads: usize,
}

impl SweepSpec {
    /// A small default grid over `base`: 4 seeds, rates ×{0.5, 1, 2},
    /// every fleet size from 2 devices up to the full initial set.
    pub fn quick(base: ServeScenario) -> Self {
        let full = base.initial_devices.len().max(1);
        SweepSpec {
            base,
            seeds: 4,
            rate_scales: vec![0.5, 1.0, 2.0],
            fleet_sizes: (2..=full).collect(),
            bin_s: 600.0,
            miss_budget: 0.01,
            threads: 0,
        }
    }

    /// Grid cells (rate scales × fleet sizes).
    pub fn cell_count(&self) -> usize {
        self.rate_scales.len() * self.fleet_sizes.len()
    }

    /// Total replicas the sweep will execute.
    pub fn replica_count(&self) -> usize {
        self.cell_count() * self.seeds
    }

    /// Validates grid shape and cell derivability.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadSpec`] on an empty grid axis, a non-positive
    /// rate scale, or a fleet size the base scenario cannot provide.
    pub fn validate(&self) -> Result<(), SweepError> {
        self.validated_order().map(drop)
    }

    /// [`SweepSpec::validate`]'s checks, returning the base scenario's
    /// initial devices with the requester moved to the front: the prefix
    /// order fleet sizes cut from.
    pub(crate) fn validated_order(&self) -> Result<Vec<String>, SweepError> {
        if self.seeds == 0 {
            return Err(SweepError::BadSpec("seeds must be >= 1".into()));
        }
        if self.rate_scales.is_empty() {
            return Err(SweepError::BadSpec("rate_scales is empty".into()));
        }
        if self.fleet_sizes.is_empty() {
            return Err(SweepError::BadSpec("fleet_sizes is empty".into()));
        }
        if !self.bin_s.is_finite() || self.bin_s <= 0.0 {
            return Err(SweepError::BadSpec("bin_s must be finite and > 0".into()));
        }
        if !self.miss_budget.is_finite() || self.miss_budget < 0.0 {
            return Err(SweepError::BadSpec(
                "miss_budget must be finite and >= 0".into(),
            ));
        }
        for &f in &self.rate_scales {
            if f <= 0.0 || !f.is_finite() {
                return Err(SweepError::BadSpec(format!(
                    "rate scale {f} must be finite and > 0"
                )));
            }
        }
        let fleet = &self.base.fleet;
        let universe = Fleet::by_name(fleet).ok_or_else(|| {
            SweepError::BadSpec(format!("unknown fleet `{fleet}` (edge|standard)"))
        })?;
        let requester = universe.requester().as_str().to_string();
        if !self.base.initial_devices.contains(&requester) {
            return Err(SweepError::BadSpec(format!(
                "base initial devices must include the requester `{requester}`"
            )));
        }
        let mut order = vec![requester.clone()];
        order.extend(
            self.base
                .initial_devices
                .iter()
                .filter(|d| **d != requester)
                .cloned(),
        );
        for &k in &self.fleet_sizes {
            if k == 0 || k > order.len() {
                return Err(SweepError::BadSpec(format!(
                    "fleet size {k} out of range 1..={} (base initial devices)",
                    order.len()
                )));
            }
        }
        Ok(order)
    }

    /// Derives one replica's scenario for cell (`rate_scale`,
    /// `fleet_size`) and replica `seed_idx` from the device `order`.
    ///
    /// - the seed label becomes `{base.seed}/r{seed_idx}` (identical
    ///   across cells: common random numbers);
    /// - every arrival process (scenario-level and per-source) is
    ///   scaled by `rate_scale`;
    /// - `initial_devices` is cut to the cell's fleet prefix, and fleet
    ///   events that no longer apply (a leave/slowdown of an excluded
    ///   device, a join of an included one) are dropped.
    ///
    /// # Errors
    ///
    /// [`SweepError::BadSpec`] when a traffic source's device falls
    /// outside the cell fleet (sources must be active at t = 0).
    pub(crate) fn cell_scenario(
        &self,
        order: &[String],
        rate_scale: f64,
        fleet_size: usize,
        seed_idx: usize,
    ) -> Result<ServeScenario, SweepError> {
        let devices = &order[..fleet_size];
        let mut s = self.base.clone();
        s.seed = format!("{}/r{}", self.base.seed, seed_idx);
        s.arrivals = scale_arrivals(&s.arrivals, rate_scale);
        for src in &mut s.sources {
            if !devices.contains(&src.device) {
                return Err(SweepError::BadSpec(format!(
                    "traffic source `{}` is outside the {}-device cell fleet",
                    src.device, fleet_size
                )));
            }
            src.arrivals = scale_arrivals(&src.arrivals, rate_scale);
        }
        s.events.retain(|e| {
            let (device, joins) = match &e.kind {
                s2m3_serve::FleetEventKind::DeviceJoin { device } => (device, true),
                s2m3_serve::FleetEventKind::DeviceLeave { device } => (device, false),
                s2m3_serve::FleetEventKind::DeviceSlowdown { device, .. } => (device, false),
            };
            devices.contains(device) != joins
        });
        s.initial_devices = devices.to_vec();
        // Replicas run concurrently: a shared sink path would interleave
        // row groups from different replicas, so the per-replica
        // scenario keeps streaming mode but drops the file sink (sweeps
        // aggregate reports, not per-request rows).
        if let Some(streaming) = &mut s.streaming {
            streaming.sink = None;
        }
        Ok(s)
    }

    /// Mean offered arrival rate of a cell at `rate_scale`, requests
    /// per second: the sum of the scaled per-source mean rates (or the
    /// scenario-level process when no sources are configured). `None`
    /// when any process has no mean rate (simultaneous bursts).
    pub(crate) fn offered_rate_per_s(&self, rate_scale: f64) -> Option<f64> {
        if self.base.sources.is_empty() {
            return self.base.arrivals.mean_rate_per_s().map(|r| r * rate_scale);
        }
        let mut total = 0.0;
        for src in &self.base.sources {
            total += src.arrivals.mean_rate_per_s()?;
        }
        Some(total * rate_scale)
    }

    /// Parses a spec from JSON (all fields required).
    ///
    /// # Errors
    ///
    /// A human-readable parse/validation message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: SweepSpec = serde_json::from_str(text).map_err(|e| e.to_string())?;
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// JSON export.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure (not expected for this type).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }
}

/// Scales an arrival process's mean rate by `factor`, preserving its
/// shape: rates multiply, inter-arrival gaps divide, burst timing
/// (simultaneous) and modulation time-scales (MMPP dwell, diurnal
/// period) stay fixed.
pub fn scale_arrivals(process: &ArrivalProcess, factor: f64) -> ArrivalProcess {
    match process {
        ArrivalProcess::Simultaneous => ArrivalProcess::Simultaneous,
        ArrivalProcess::Uniform { interval_s } => ArrivalProcess::Uniform {
            interval_s: interval_s / factor,
        },
        ArrivalProcess::Poisson { rate_per_s } => ArrivalProcess::Poisson {
            rate_per_s: rate_per_s * factor,
        },
        ArrivalProcess::Mmpp {
            rates_per_s,
            mean_dwell_s,
        } => ArrivalProcess::Mmpp {
            rates_per_s: rates_per_s.iter().map(|r| r * factor).collect(),
            mean_dwell_s: *mean_dwell_s,
        },
        ArrivalProcess::Diurnal {
            base_rate_per_s,
            peak_rate_per_s,
            period_s,
        } => ArrivalProcess::Diurnal {
            base_rate_per_s: base_rate_per_s * factor,
            peak_rate_per_s: peak_rate_per_s * factor,
            period_s: *period_s,
        },
        ArrivalProcess::Trace { inter_arrival_s } => ArrivalProcess::Trace {
            inter_arrival_s: inter_arrival_s.iter().map(|g| g / factor).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::quick(ServeScenario::churn_default())
    }

    #[test]
    fn quick_spec_validates_and_counts() {
        let s = spec();
        s.validate().unwrap();
        assert_eq!(s.cell_count(), 3 * 3);
        assert_eq!(s.replica_count(), 3 * 3 * 4);
    }

    #[test]
    fn scaling_doubles_rates_and_halves_gaps() {
        let p = scale_arrivals(&ArrivalProcess::Poisson { rate_per_s: 0.3 }, 2.0);
        assert_eq!(p.mean_rate_per_s(), Some(0.6));
        let u = scale_arrivals(&ArrivalProcess::Uniform { interval_s: 4.0 }, 2.0);
        assert!(matches!(u, ArrivalProcess::Uniform { interval_s } if interval_s == 2.0));
        let t = scale_arrivals(
            &ArrivalProcess::Trace {
                inter_arrival_s: vec![1.0, 3.0],
            },
            2.0,
        );
        assert!(
            matches!(t, ArrivalProcess::Trace { inter_arrival_s } if inter_arrival_s == [0.5, 1.5])
        );
        let m = scale_arrivals(
            &ArrivalProcess::Mmpp {
                rates_per_s: vec![0.1, 1.0],
                mean_dwell_s: 60.0,
            },
            3.0,
        );
        match m {
            ArrivalProcess::Mmpp {
                rates_per_s,
                mean_dwell_s,
            } => {
                assert_eq!(rates_per_s, vec![0.30000000000000004, 3.0]);
                assert_eq!(mean_dwell_s, 60.0, "modulation time-scale is preserved");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cell_scenario_keeps_requester_and_filters_events() {
        // churn_default: initial [desktop, laptop, jetson-b, jetson-a],
        // requester jetson-a, desktop leaves @1800s, server joins @4200s.
        let s = spec();
        let order = s.validated_order().unwrap();
        let two = s.cell_scenario(&order, 1.0, 2, 0).unwrap();
        assert_eq!(two.initial_devices, vec!["jetson-a", "desktop"]);
        assert_eq!(two.seed, format!("{}/r0", s.base.seed));
        // Desktop is in the cell: its leave stays. Server join stays.
        assert_eq!(two.events.len(), s.base.events.len());

        let solo = s.cell_scenario(&order, 1.0, 1, 2).unwrap();
        assert_eq!(solo.initial_devices, vec!["jetson-a"]);
        // Desktop excluded: its leave is dropped; the join survives.
        assert!(solo.events.iter().all(|e| !matches!(
            &e.kind,
            s2m3_serve::FleetEventKind::DeviceLeave { device } if device == "desktop"
        )));
    }

    #[test]
    fn seeds_are_shared_across_cells() {
        let s = spec();
        let order = s.validated_order().unwrap();
        let a = s.cell_scenario(&order, 0.5, 2, 3).unwrap();
        let b = s.cell_scenario(&order, 2.0, 4, 3).unwrap();
        assert_eq!(a.seed, b.seed, "common random numbers across cells");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut s = spec();
        s.seeds = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.rate_scales = vec![0.0];
        assert!(s.validate().is_err());
        let mut s = spec();
        s.fleet_sizes = vec![99];
        assert!(s.validate().is_err());
        let mut s = spec();
        s.bin_s = f64::INFINITY;
        assert!(
            s.validate().is_err(),
            "an infinite bin would stamp t_s = inf"
        );
        let mut s = spec();
        s.base.initial_devices = vec!["desktop".to_string()];
        assert!(s.validate().is_err(), "requester must be derivable");
    }

    #[test]
    fn offered_rate_scales_with_the_grid() {
        let s = spec();
        let base = s.base.arrivals.mean_rate_per_s().unwrap();
        assert_eq!(s.offered_rate_per_s(2.0), Some(base * 2.0));
    }

    #[test]
    fn spec_json_roundtrip() {
        let s = spec();
        let back = SweepSpec::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(s, back);
        // A spec whose `base` was written while the scenario had a
        // `threads` field is refused by that key's name and path.
        let old = s
            .to_json()
            .unwrap()
            .replace("\"budget\": null", "\"threads\": 4,\n    \"budget\": null");
        assert!(old.contains("\"threads\": 4,"));
        let err = SweepSpec::from_json(&old).unwrap_err();
        assert!(
            err.contains("field `base`: unknown field `threads`"),
            "{err}"
        );
    }
}
