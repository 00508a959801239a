//! The cluster placement sweep behind `repro cluster`.
//!
//! One experiment: a fixed 128-session workload — a heterogeneous mix of
//! VectorAdd / EP / MM / BlackScholes sessions across four tenants, with
//! a quarter of the sessions grouped into 4-wide gangs — placed over
//! {8, 16, 32} simulated C2070 devices by every [`PlacePolicy`]. The
//! interesting comparisons:
//!
//! * **Turnaround distribution** — p50/p95/mean session turnaround.
//!   BinPack concentrates load (fewer devices, more queueing); Spread
//!   and DRF flatten the tail.
//! * **Device utilization** — busy fraction per device (SM + copy
//!   engines over the makespan). BinPack drives fewer devices harder;
//!   Spread touches all of them lightly.
//! * **Placement shape** — admission waves, deferral events, and the
//!   per-device session spread (min–max).
//!
//! With `analyze` on, every point also records its trace and is gated on
//! the `gv-analyze` checkers, including the cluster co-residency linter.

use gv_cuda::CudaDevice;
use gv_gpu::{DeviceConfig, GpuDevice};
use gv_ipc::Node;
use gv_kernels::{Benchmark, BenchmarkId};
use gv_sim::Simulation;
use gv_virt::{Cluster, ClusterConfig, MemQuota, PlacePolicy, VgpuRequest};

use crate::report::{bench_record, ms, pct, Artifact, TextTable};
use crate::scenario::Scenario;

/// Sessions per sweep point (fixed across device counts so the policy
/// comparison holds the workload constant).
pub const SESSIONS: usize = 128;

/// Device counts the sweep covers.
pub const DEVICES: [usize; 3] = [8, 16, 32];

/// Tenants the workload is spread across.
pub const TENANTS: u64 = 4;

/// Number of all-or-nothing gangs in the workload.
pub const GANGS: u64 = 12;

/// Sessions per gang.
pub const GANG_SIZE: u64 = 4;

/// Benchmark rotation: I/O-bound, compute-bound, and two in between.
const MIX: [BenchmarkId; 4] = [
    BenchmarkId::VecAdd,
    BenchmarkId::Ep,
    BenchmarkId::Mm,
    BenchmarkId::BlackScholes,
];

/// Build the fixed 128-session workload: the first `GANGS × GANG_SIZE`
/// requests form 4-wide single-tenant gangs (gang `g` runs benchmark
/// `MIX[g % 4]`), the rest are singletons rotating tenant and benchmark
/// by request id. Deterministic — every policy and device count places
/// the identical request stream.
pub fn requests(cfg: &DeviceConfig, scale_down: u32) -> Vec<VgpuRequest> {
    (0..SESSIONS as u64)
        .map(|i| {
            let (tenant, gang, bench) = if i < GANGS * GANG_SIZE {
                let g = i / GANG_SIZE;
                // Gang members must share a tenant.
                (g % TENANTS, Some(g + 1), MIX[(g % 4) as usize])
            } else {
                (i % TENANTS, None, MIX[(i % 4) as usize])
            };
            VgpuRequest {
                id: i,
                tenant,
                gang,
                quota: MemQuota::Unlimited,
                task: Benchmark::scaled_task(bench, cfg, scale_down.max(1)),
            }
        })
        .collect()
}

/// One policy × device-count measurement.
pub struct ClusterPoint {
    /// Policy label.
    pub policy: &'static str,
    /// Devices in the cluster.
    pub devices: usize,
    /// Sessions placed.
    pub sessions: usize,
    /// Admission waves executed.
    pub waves: u32,
    /// Deferral events during planning.
    pub deferred_groups: u64,
    /// GVM instances booted.
    pub gvms: u64,
    /// Cluster makespan (end of simulation) in ms.
    pub makespan_ms: f64,
    /// Median session turnaround (end − start) in ms.
    pub p50_ms: f64,
    /// 95th-percentile session turnaround in ms.
    pub p95_ms: f64,
    /// Mean session turnaround in ms.
    pub mean_ms: f64,
    /// Mean per-device busy fraction over the makespan.
    pub util_mean: f64,
    /// Least-busy device's busy fraction.
    pub util_min: f64,
    /// Busiest device's busy fraction.
    pub util_max: f64,
    /// Fewest sessions any device hosted.
    pub sessions_min: u64,
    /// Most sessions any device hosted.
    pub sessions_max: u64,
    /// `gv-analyze` verdict (`None` when analysis is off).
    pub clean: Option<bool>,
}

/// Nearest-rank percentile of an unsorted sample, `q` in [0, 1].
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one policy × device-count point.
pub fn run_point(
    base: &Scenario,
    policy: PlacePolicy,
    ndev: usize,
    scale_down: u32,
    analyze: bool,
) -> ClusterPoint {
    let mut sim = Simulation::new();
    let tracer = sim.tracer();
    if analyze {
        tracer.set_analysis(true);
    }
    let devices: Vec<GpuDevice> = (0..ndev)
        .map(|_| GpuDevice::install(&mut sim, base.device.clone()))
        .collect();
    let cudas: Vec<CudaDevice> = devices.iter().map(|d| CudaDevice::new(d.clone())).collect();
    let node = Node::new(base.node.clone());
    let reqs = requests(&base.device, scale_down);
    let handle = Cluster::install(&mut sim, &node, &cudas, ClusterConfig::new(policy), reqs)
        .expect("feasible placement");
    let summary = sim.run().expect("cluster run completes");
    let results = handle.session_results();
    assert_eq!(results.len(), SESSIONS, "every session finished");
    let stats = handle.stats();

    let mut turnarounds: Vec<f64> = results
        .iter()
        .map(|s| s.run.end.duration_since(s.run.start).as_millis_f64())
        .collect();
    turnarounds.sort_by(|a, b| a.total_cmp(b));
    let mean_ms = turnarounds.iter().sum::<f64>() / turnarounds.len() as f64;

    // Busy fraction: SM cycles (converted to seconds at the device clock)
    // plus copy-engine busy time, over the makespan. A coarse proxy — the
    // engines overlap — but it separates "driven hard" from "barely used".
    let makespan_ms = summary
        .end_time
        .duration_since(gv_sim::SimTime::ZERO)
        .as_millis_f64();
    let sm_hz = base.device.num_sms as f64 * base.device.clock_ghz * 1e9;
    let utils: Vec<f64> = devices
        .iter()
        .map(|d| {
            let s = d.stats();
            let sm_ms = s.sm_busy_cycles / sm_hz * 1e3;
            let busy_ms = sm_ms + s.h2d_busy.as_millis_f64() + s.d2h_busy.as_millis_f64();
            (busy_ms / makespan_ms).min(1.0)
        })
        .collect();
    let util_mean = utils.iter().sum::<f64>() / utils.len() as f64;
    let util_min = utils.iter().cloned().fold(f64::MAX, f64::min);
    let util_max = utils.iter().cloned().fold(f64::MIN, f64::max);

    let clean = analyze.then(|| {
        let report = gv_analyze::analyze(&tracer.analysis_snapshot());
        if !report.is_clean() {
            eprintln!(
                "{} × {ndev} devices: gv-analyze diagnostics:\n{}",
                policy.name(),
                report.render()
            );
        }
        report.is_clean()
    });

    ClusterPoint {
        policy: policy.name(),
        devices: ndev,
        sessions: results.len(),
        waves: stats.waves,
        deferred_groups: stats.deferred_groups,
        gvms: stats.gvms,
        makespan_ms,
        p50_ms: percentile(&turnarounds, 0.50),
        p95_ms: percentile(&turnarounds, 0.95),
        mean_ms,
        util_mean,
        util_min,
        util_max,
        sessions_min: stats.per_device_sessions.iter().copied().min().unwrap_or(0),
        sessions_max: stats.per_device_sessions.iter().copied().max().unwrap_or(0),
        clean,
    }
}

/// Run the full policy × device-count matrix. `clean` in the returned
/// tuple is `false` if any analyzed trace had diagnostics (always `true`
/// when `analyze` is off).
pub fn matrix(base: &Scenario, scale_down: u32, analyze: bool) -> (Vec<ClusterPoint>, bool) {
    let mut points = Vec::new();
    let mut clean = true;
    for ndev in DEVICES {
        for policy in PlacePolicy::all() {
            let p = run_point(base, policy, ndev, scale_down, analyze);
            clean &= p.clean.unwrap_or(true);
            points.push(p);
        }
    }
    (points, clean)
}

/// Render the artifact, with its `BENCH_cluster.json` record, from a
/// completed [`matrix`] run.
pub fn artifact(points: &[ClusterPoint], scale_down: u32) -> Artifact {
    let mut csv = String::from(
        "policy,devices,sessions,waves,deferred_groups,gvms,makespan_ms,\
         p50_ms,p95_ms,mean_ms,util_mean,util_min,util_max,\
         sessions_min,sessions_max,analyzed_clean\n",
    );
    let mut text = format!(
        "CLUSTER PLACEMENT SWEEP — {SESSIONS} sessions ({GANGS} gangs of \
         {GANG_SIZE}, {TENANTS} tenants) (scale 1/{scale_down})\n\n"
    );
    for ndev in DEVICES {
        let mut t = TextTable::new(vec![
            "policy",
            "waves",
            "p50 (ms)",
            "p95 (ms)",
            "mean (ms)",
            "makespan (ms)",
            "util mean",
            "util min–max",
            "sess/dev",
            "deferred",
        ]);
        for p in points.iter().filter(|p| p.devices == ndev) {
            t.row(vec![
                p.policy.to_string(),
                p.waves.to_string(),
                ms(p.p50_ms),
                ms(p.p95_ms),
                ms(p.mean_ms),
                ms(p.makespan_ms),
                pct(p.util_mean),
                format!("{}–{}", pct(p.util_min), pct(p.util_max)),
                format!("{}–{}", p.sessions_min, p.sessions_max),
                p.deferred_groups.to_string(),
            ]);
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{},{},{}\n",
                p.policy,
                p.devices,
                p.sessions,
                p.waves,
                p.deferred_groups,
                p.gvms,
                p.makespan_ms,
                p.p50_ms,
                p.p95_ms,
                p.mean_ms,
                p.util_mean,
                p.util_min,
                p.util_max,
                p.sessions_min,
                p.sessions_max,
                p.clean.map(|c| c.to_string()).unwrap_or_default(),
            ));
        }
        text.push_str(&format!("{ndev} devices:\n{}\n", t.render()));
    }
    text.push_str(
        "BinPack packs the fewest devices (highest util max, deepest\n\
         queues); Spread and DRF flatten per-device load; Gang holds\n\
         4-wide groups on one device, trading waves for co-residency.\n",
    );
    Artifact::new("cluster", text, Some(csv)).with_file("BENCH_cluster.json", bench_json(points))
}

/// Render the machine-readable record (`BENCH_cluster.json`).
pub fn bench_json(points: &[ClusterPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"policy\": \"{}\", \"devices\": {}, \"sessions\": {}, \
             \"waves\": {}, \"deferred_groups\": {}, \"gvms\": {}, \
             \"makespan_ms\": {:.6}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \
             \"mean_ms\": {:.6}, \"util_mean\": {:.4}, \"util_min\": {:.4}, \
             \"util_max\": {:.4}, \"sessions_min\": {}, \"sessions_max\": {}}}",
                p.policy,
                p.devices,
                p.sessions,
                p.waves,
                p.deferred_groups,
                p.gvms,
                p.makespan_ms,
                p.p50_ms,
                p.p95_ms,
                p.mean_ms,
                p.util_mean,
                p.util_min,
                p.util_max,
                p.sessions_min,
                p.sessions_max,
            )
        })
        .collect();
    bench_record("cluster_placement", &[], "points", &rows, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_well_formed() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let reqs = requests(&cfg, 64);
        assert_eq!(reqs.len(), SESSIONS);
        // Gang members share a tenant; ids are dense and unique.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            if let Some(g) = r.gang {
                assert_eq!(r.tenant, (g - 1) % TENANTS);
            }
        }
        let gangs: std::collections::HashSet<u64> = reqs.iter().filter_map(|r| r.gang).collect();
        assert_eq!(gangs.len(), GANGS as usize);
        // Every gang is exactly GANG_SIZE wide.
        for g in gangs {
            let width = reqs.iter().filter(|r| r.gang == Some(g)).count();
            assert_eq!(width, GANG_SIZE as usize);
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0); // round(1.5) = 2
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn one_point_runs_and_balances() {
        let base = Scenario::default();
        let p = run_point(&base, PlacePolicy::Spread, 8, 64, false);
        assert_eq!(p.sessions, SESSIONS);
        assert!(p.waves >= 1);
        assert!(p.p95_ms >= p.p50_ms);
        assert!(p.makespan_ms > 0.0);
        assert!(p.util_max <= 1.0 && p.util_min >= 0.0);
        // Spread balances: no device is idle while another hosts the lot.
        assert!(p.sessions_max > 0 && p.sessions_max - p.sessions_min <= SESSIONS as u64 / 2);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let base = Scenario::default();
        let p = run_point(&base, PlacePolicy::BinPack, 8, 64, false);
        let json = bench_json(&[p]);
        assert!(json.contains("\"bench\": \"cluster_placement\""));
        assert_eq!(json.matches("\"policy\":").count(), 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Single point → no trailing comma before the closing bracket.
        assert!(!json.contains("},\n  ]"));
    }
}
