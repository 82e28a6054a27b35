//! Trial-to-trial fleet perturbation.
//!
//! The paper averages every latency over five trials because real
//! networks and schedulers are noisy. Our simulator is deterministic, so
//! trials are realized by perturbing device speeds and link conditions
//! with a seeded RNG (±10% speed, ±20% latency) — the same magnitude of
//! run-to-run variation the paper's testbed exhibits.

use rand_chacha::rand_core::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use s2m3_net::fleet::Fleet;
use s2m3_net::link::LinkSpec;
use s2m3_net::topology::Topology;
use s2m3_tensor::seed::seed_from_label;

/// Returns a copy of `fleet` with per-trial perturbations derived from
/// `label` (use e.g. `"trial/3"`).
pub(crate) fn perturbed_fleet(fleet: &Fleet, label: &str) -> Fleet {
    let mut rng = ChaCha8Rng::from_seed(seed_from_label(&format!("perturb/{label}")));
    let mut uniform = move |lo: f64, hi: f64| {
        let u = (rng.next_u32() >> 8) as f64 / (1u32 << 24) as f64;
        lo + u * (hi - lo)
    };

    let mut devices = fleet.devices().to_vec();
    for d in &mut devices {
        d.speed_gflops *= uniform(0.9, 1.1);
        d.exec_overhead_s *= uniform(0.85, 1.15);
    }
    let mut topology = Topology::new();
    for d in fleet.devices() {
        // Rebuild each access link with jitter.
        let base = fleet
            .topology()
            .path(&d.id, fleet.requester())
            .unwrap_or_else(|_| LinkSpec::loopback());
        let jitter_lat = uniform(0.8, 1.2);
        let jitter_bw = uniform(0.85, 1.1);
        topology.set_access(
            d.id.clone(),
            LinkSpec::new(
                (base.bandwidth_bps * jitter_bw).max(1.0e6),
                (base.latency_s * 0.5 * jitter_lat).max(1.0e-4),
            ),
        );
    }
    Fleet::new(devices, topology, fleet.requester().clone())
        .expect("perturbation keeps the fleet valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_is_deterministic_per_label() {
        let f = Fleet::edge_testbed();
        let a = perturbed_fleet(&f, "trial/0");
        let b = perturbed_fleet(&f, "trial/0");
        let c = perturbed_fleet(&f, "trial/1");
        assert_eq!(
            a.device("laptop").unwrap().speed_gflops,
            b.device("laptop").unwrap().speed_gflops
        );
        assert_ne!(
            a.device("laptop").unwrap().speed_gflops,
            c.device("laptop").unwrap().speed_gflops
        );
    }

    #[test]
    fn perturbation_stays_within_bounds() {
        let f = Fleet::edge_testbed();
        for t in 0..10 {
            let p = perturbed_fleet(&f, &format!("trial/{t}"));
            for (d, base) in p.devices().iter().zip(f.devices()) {
                let ratio = d.speed_gflops / base.speed_gflops;
                assert!((0.9..=1.1).contains(&ratio), "{ratio}");
            }
        }
    }
}
