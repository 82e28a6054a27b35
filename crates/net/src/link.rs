//! Point-to-point link model.

/// A (directed-symmetric) link: one-way latency plus bandwidth.
///
/// Transfer time for `b` bytes is `latency + 8·b / bandwidth` — the
/// standard first-order model; the paper's own measurements (Fig. 3) show
/// communication is latency-dominated and negligible next to computation,
/// and the same conclusion emerges here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// Creates a link from bandwidth (bit/s) and one-way latency (s).
    pub fn new(bandwidth_bps: f64, latency_s: f64) -> Self {
        LinkSpec {
            bandwidth_bps,
            latency_s,
        }
    }

    /// The zero-cost loopback link (same-device transfers).
    pub fn loopback() -> Self {
        LinkSpec {
            bandwidth_bps: f64::INFINITY,
            latency_s: 0.0,
        }
    }

    /// Seconds to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return self.latency_s.min(f64::MAX);
        }
        self.latency_s + (bytes as f64 * 8.0) / self.bandwidth_bps
    }

    /// Composes two access links into an end-to-end path (through the home
    /// router / MAN gateway): latencies add, bandwidth is the bottleneck.
    pub(crate) fn compose(&self, other: &LinkSpec) -> LinkSpec {
        LinkSpec {
            bandwidth_bps: self.bandwidth_bps.min(other.bandwidth_bps),
            latency_s: self.latency_s + other.latency_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_serialization() {
        let l = LinkSpec::new(100.0e6, 0.005);
        // 1 MB over 100 Mbit/s = 0.08 s + 5 ms latency.
        let t = l.transfer_time(1_000_000);
        assert!((t - 0.085).abs() < 1e-9, "{t}");
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let l = LinkSpec::new(100.0e6, 0.003);
        assert_eq!(l.transfer_time(0), 0.003);
    }

    #[test]
    fn loopback_is_free() {
        assert_eq!(LinkSpec::loopback().transfer_time(10_000_000), 0.0);
    }

    #[test]
    fn compose_bottlenecks_bandwidth_and_adds_latency() {
        let wifi = LinkSpec::new(120.0e6, 0.003);
        let wired = LinkSpec::new(940.0e6, 0.0015);
        let path = wifi.compose(&wired);
        assert_eq!(path.bandwidth_bps, 120.0e6);
        assert!((path.latency_s - 0.0045).abs() < 1e-12);
    }

    #[test]
    fn wifi_image_upload_is_tens_of_ms() {
        // A 500 KB image over composed Wi-Fi links: small next to any
        // encoder computation — the Fig. 3 observation.
        let path = LinkSpec::new(120.0e6, 0.003).compose(&LinkSpec::new(120.0e6, 0.003));
        let t = path.transfer_time(500 * 1024);
        assert!((0.02..0.06).contains(&t), "{t}");
    }
}
