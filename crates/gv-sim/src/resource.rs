//! Server-style resources.
//!
//! [`FifoServer`] models a device engine that serves requests one (or `k`)
//! at a time, each with a caller-computed service duration — the exact shape
//! of a DMA copy engine: `t_service = latency + bytes / bandwidth`, requests
//! from the same direction strictly serialized, FIFO order preserved.
//! Utilization accounting comes for free and is used by the harness to
//! report engine occupancy.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::process::Ctx;
use crate::sync::Semaphore;
use crate::time::{SimDuration, SimTime};

#[derive(Default)]
struct ServerStats {
    busy: SimDuration,
    requests: u64,
    last_end: SimTime,
}

/// A `k`-server FIFO queueing resource with per-request service times.
#[derive(Clone)]
pub struct FifoServer {
    sem: Semaphore,
    capacity: usize,
    stats: Arc<Mutex<ServerStats>>,
}

impl FifoServer {
    /// A server able to process `capacity` requests concurrently.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        FifoServer {
            sem: Semaphore::new(capacity),
            capacity,
            stats: Arc::new(Mutex::new(ServerStats::default())),
        }
    }

    /// Concurrency limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupy one server slot for `service` simulated time, queueing FIFO
    /// behind earlier requests. Returns the completion time.
    pub fn serve(&self, ctx: &mut Ctx, service: SimDuration) -> SimTime {
        self.sem.acquire(ctx);
        ctx.hold(service);
        let end = ctx.now();
        {
            let mut st = self.stats.lock();
            st.busy += service;
            st.requests += 1;
            st.last_end = st.last_end.max(end);
        }
        self.sem.release(ctx);
        end
    }

    /// Total busy time accumulated across all served requests.
    pub fn busy_time(&self) -> SimDuration {
        self.stats.lock().busy
    }

    /// Number of requests served to completion.
    pub fn requests_served(&self) -> u64 {
        self.stats.lock().requests
    }

    /// Completion time of the latest finished request.
    pub fn last_completion(&self) -> SimTime {
        self.stats.lock().last_end
    }

    /// Busy fraction over `[0, horizon]` (1.0 = always busy, per slot).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time().as_secs_f64() / (horizon.as_secs_f64() * self.capacity as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;

    #[test]
    fn single_server_serializes_fifo() {
        let mut sim = Simulation::new();
        let server = FifoServer::new(1);
        let ends = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let server = server.clone();
            let ends = ends.clone();
            sim.spawn(&format!("req{i}"), move |ctx| {
                ctx.hold(SimDuration::from_millis(i)); // arrive staggered
                let end = server.serve(ctx, SimDuration::from_millis(10));
                ends.lock().push((i, end.as_millis_f64()));
            });
        }
        sim.run().unwrap();
        let ends = ends.lock().clone();
        assert_eq!(ends, vec![(0, 10.0), (1, 20.0), (2, 30.0)]);
        assert_eq!(server.busy_time(), SimDuration::from_millis(30));
        assert_eq!(server.requests_served(), 3);
    }

    #[test]
    fn dual_server_overlaps_two_requests() {
        let mut sim = Simulation::new();
        let server = FifoServer::new(2);
        for i in 0..4u64 {
            let server = server.clone();
            sim.spawn(&format!("req{i}"), move |ctx| {
                server.serve(ctx, SimDuration::from_millis(10));
            });
        }
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 20.0);
        // Utilization: 40ms busy over 20ms horizon with 2 slots = 1.0.
        assert!((server.utilization(s.end_time) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_at_zero_horizon_is_zero() {
        let server = FifoServer::new(1);
        assert_eq!(server.utilization(SimTime::ZERO), 0.0);
    }
}
