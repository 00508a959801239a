//! A point-to-point cluster interconnect link.
//!
//! Used by the remote-GPU baseline (paper §II, Duato et al. [11] / gVirtuS
//! [10]): client nodes without GPUs ship API calls and data to a GPU node
//! over TCP/IP or InfiniBand. The link is full-duplex — each direction is a
//! FIFO served at the configured bandwidth with a per-message latency.

use gv_sim::{Ctx, FifoServer, SimDuration};

/// Link timing parameters.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// One-way message latency.
    pub latency: SimDuration,
    /// Per-direction bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl LinkConfig {
    /// Gigabit Ethernet with TCP (the gVirtuS deployment): ~0.11 GB/s
    /// effective, ~60 µs latency.
    pub fn gigabit_ethernet() -> Self {
        LinkConfig {
            latency: SimDuration::from_micros(60),
            bandwidth_gbps: 0.11,
        }
    }

    /// DDR InfiniBand (the rCUDA deployment): ~1.4 GB/s effective,
    /// ~8 µs latency.
    pub fn infiniband_ddr() -> Self {
        LinkConfig {
            latency: SimDuration::from_micros(8),
            bandwidth_gbps: 1.4,
        }
    }

    /// Transfer duration for `bytes` bytes.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / (self.bandwidth_gbps * 1.0e9))
    }
}

/// A full-duplex link: independent FIFO channels per direction.
#[derive(Clone)]
pub struct NetworkLink {
    config: LinkConfig,
    forward: FifoServer,
    reverse: FifoServer,
}

impl NetworkLink {
    /// A link with the given timing.
    pub fn new(config: LinkConfig) -> Self {
        NetworkLink {
            config,
            forward: FifoServer::new(1),
            reverse: FifoServer::new(1),
        }
    }

    /// Link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Ship `bytes` client → server (blocks the caller; concurrent sends
    /// serialize on the direction's channel).
    pub fn send_forward(&self, ctx: &mut Ctx, bytes: u64) {
        self.forward.serve(ctx, self.config.transfer_time(bytes));
    }

    /// Ship `bytes` server → client.
    pub fn send_reverse(&self, ctx: &mut Ctx, bytes: u64) {
        self.reverse.serve(ctx, self.config.transfer_time(bytes));
    }

    /// Total bytes-on-the-wire time accumulated in each direction.
    pub fn busy_ms(&self) -> (f64, f64) {
        (
            self.forward.busy_time().as_millis_f64(),
            self.reverse.busy_time().as_millis_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_sim::Simulation;

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let link = LinkConfig::infiniband_ddr();
        // 1.4 GB at 1.4 GB/s = 1 s + 8 µs.
        let t = link.transfer_time(1_400_000_000);
        assert!((t.as_secs_f64() - 1.000008).abs() < 1e-6);
    }

    #[test]
    fn same_direction_transfers_serialize() {
        let mut sim = Simulation::new();
        let link = NetworkLink::new(LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_gbps: 1.0,
        });
        for i in 0..2 {
            let link = link.clone();
            sim.spawn(&format!("tx{i}"), move |ctx| {
                link.send_forward(ctx, 10_000_000); // 10 ms each
            });
        }
        let s = sim.run().unwrap();
        assert!((s.end_time.as_millis_f64() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn directions_are_full_duplex() {
        let mut sim = Simulation::new();
        let link = NetworkLink::new(LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_gbps: 1.0,
        });
        let l1 = link.clone();
        sim.spawn("fwd", move |ctx| l1.send_forward(ctx, 10_000_000));
        let l2 = link.clone();
        sim.spawn("rev", move |ctx| l2.send_reverse(ctx, 10_000_000));
        let s = sim.run().unwrap();
        assert!((s.end_time.as_millis_f64() - 10.0).abs() < 1e-6);
        let (f, r) = link.busy_ms();
        assert!((f - 10.0).abs() < 1e-6 && (r - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ethernet_slower_than_infiniband() {
        let e = LinkConfig::gigabit_ethernet();
        let ib = LinkConfig::infiniband_ddr();
        assert!(e.transfer_time(1 << 20) > ib.transfer_time(1 << 20));
    }
}
