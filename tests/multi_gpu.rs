//! Multi-GPU nodes through the cluster placement front-end, plus the
//! one-device differential: a cluster of one device is *bit-identical* to
//! the direct single-GVM path under every placement policy.

use gvirt::cuda::CudaDevice;
use gvirt::gpu::{DeviceConfig, GpuDevice};
use gvirt::ipc::{Node, NodeConfig};
use gvirt::kernels::{Benchmark, BenchmarkId, GpuTask};
use gvirt::prelude::{ExecutionMode, Scenario};
use gvirt::sim::{SimDuration, Simulation};
use gvirt::virt::{Cluster, ClusterConfig, MemQuota, PlacePolicy, VgpuRequest};

/// Run `n` single-tenant sessions of `task` over `ngpus` devices under
/// `policy`; returns (makespan_ms, per-device kernel counts).
fn run_cluster(task: &GpuTask, n: usize, ngpus: usize, policy: PlacePolicy) -> (f64, Vec<u64>) {
    let mut sim = Simulation::new();
    let cfg = DeviceConfig::tesla_c2070_paper();
    let devices: Vec<GpuDevice> = (0..ngpus)
        .map(|_| GpuDevice::install(&mut sim, cfg.clone()))
        .collect();
    let cudas: Vec<CudaDevice> = devices.iter().map(|d| CudaDevice::new(d.clone())).collect();
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let requests: Vec<VgpuRequest> = (0..n)
        .map(|i| VgpuRequest {
            id: i as u64,
            tenant: 0,
            gang: None,
            quota: MemQuota::Unlimited,
            task: task.clone(),
        })
        .collect();
    let handle = Cluster::install(
        &mut sim,
        &node,
        &cudas,
        ClusterConfig::new(policy),
        requests,
    )
    .expect("feasible placement");
    sim.run().unwrap();
    let sessions = handle.session_results();
    assert_eq!(sessions.len(), n, "every session must report");
    let start = sessions.iter().map(|s| s.run.start).min().unwrap();
    let end = sessions.iter().map(|s| s.run.end).max().unwrap();
    let counts = devices
        .iter()
        .map(|d| d.stats().kernels_completed)
        .collect();
    (end.duration_since(start).as_millis_f64(), counts)
}

/// A GPU-saturating workload on 4 ranks: spreading over two GPUs nearly
/// halves the makespan relative to one.
#[test]
fn two_gpus_halve_saturating_makespan() {
    let cfg = DeviceConfig::tesla_c2070_paper();
    // Electrostatics saturates the device → no concurrency headroom on a
    // single GPU; a second GPU is the only way to scale.
    let task = Benchmark::scaled_task(BenchmarkId::Electrostatics, &cfg, 8);
    let (t1, _) = run_cluster(&task, 4, 1, PlacePolicy::Spread);
    let (t2, counts) = run_cluster(&task, 4, 2, PlacePolicy::Spread);
    let ratio = t1 / t2;
    assert!(
        ratio > 1.7,
        "2 GPUs should nearly halve the makespan: {t1:.1} ms → {t2:.1} ms ({ratio:.2}×)"
    );
    // Spread balances: both devices did half the kernels.
    assert_eq!(counts.len(), 2);
    assert_eq!(counts[0], counts[1]);
}

/// Spread placement balances sessions across devices.
#[test]
fn spread_balances_sessions_across_devices() {
    let cfg = DeviceConfig::tesla_c2070_paper();
    let task = Benchmark::scaled_task(BenchmarkId::Ep, &cfg, 64);
    let (_, counts) = run_cluster(&task, 6, 3, PlacePolicy::Spread);
    // 6 sessions × 1 kernel over 3 devices → 2 kernels each.
    assert_eq!(counts, vec![2, 2, 2]);
}

/// BinPack placement consolidates: sessions that fit together land on the
/// first device and the others stay idle.
#[test]
fn binpack_consolidates_on_first_device() {
    let cfg = DeviceConfig::tesla_c2070_paper();
    let task = Benchmark::scaled_task(BenchmarkId::Ep, &cfg, 64);
    let (_, counts) = run_cluster(&task, 4, 3, PlacePolicy::BinPack);
    assert_eq!(counts, vec![4, 0, 0]);
}

// ---------------------------------------------------------------------------
// One-device differential: cluster front-end ≡ direct single-GVM path
// ---------------------------------------------------------------------------

/// Assert two experiment results are bitwise identical: every per-rank
/// protocol timestamp, every functional output, and the turnaround.
fn assert_bit_identical(
    direct: &gvirt::harness::scenario::ExperimentResult,
    cluster: &gvirt::harness::scenario::ExperimentResult,
    what: &str,
) {
    assert_eq!(direct.runs, cluster.runs, "{what}: TaskRun streams differ");
    assert_eq!(direct.outputs, cluster.outputs, "{what}: outputs differ");
    assert_eq!(
        direct.turnaround_ms.to_bits(),
        cluster.turnaround_ms.to_bits(),
        "{what}: turnaround differs"
    );
    assert_eq!(
        direct.device.kernels_completed, cluster.device.kernels_completed,
        "{what}: kernel counts differ"
    );
}

/// Every policy on a one-device cluster is bit-identical to the direct
/// single-GVM path: same per-rank timestamps, same outputs.
#[test]
fn one_device_cluster_is_bit_identical_for_every_policy() {
    let sc = Scenario::default();
    let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &sc.device, 100);
    for n in [1, 4, 8] {
        let direct = sc.run_uniform(ExecutionMode::Virtualized, &task, n);
        for policy in PlacePolicy::all() {
            let routed =
                sc.clone()
                    .with_cluster(policy)
                    .run_uniform(ExecutionMode::Virtualized, &task, n);
            assert_bit_identical(&direct, &routed, &format!("{policy} n={n}"));
        }
    }
}

/// The differential holds with staggered arrivals, multiple rounds, and a
/// non-default scheduler — the front-end adds no simulated-time cost on
/// any code path.
#[test]
fn one_device_differential_survives_stagger_rounds_and_scheduler() {
    let sc = Scenario::default()
        .with_scheduler(gvirt::virt::SchedPolicy::Fcfs)
        .with_stagger(SimDuration::from_millis(3))
        .with_rounds(3);
    let task = Benchmark::scaled_task(BenchmarkId::BlackScholes, &sc.device, 200);
    let direct = sc.run_uniform(ExecutionMode::Virtualized, &task, 6);
    for policy in PlacePolicy::all() {
        let routed =
            sc.clone()
                .with_cluster(policy)
                .run_uniform(ExecutionMode::Virtualized, &task, 6);
        assert_bit_identical(&direct, &routed, &format!("{policy} staggered"));
    }
}

/// Heterogeneous tasks keep the differential too (per-rank task tables are
/// forwarded to the single (device, wave) GVM in slot order).
#[test]
fn one_device_differential_with_heterogeneous_tasks() {
    let sc = Scenario::default();
    let tasks: Vec<GpuTask> = [
        (BenchmarkId::VecAdd, 100),
        (BenchmarkId::Ep, 64),
        (BenchmarkId::BlackScholes, 200),
        (BenchmarkId::VecAdd, 200),
    ]
    .iter()
    .map(|&(id, s)| Benchmark::scaled_task(id, &sc.device, s))
    .collect();
    let direct = sc.run(ExecutionMode::Virtualized, tasks.clone());
    for policy in PlacePolicy::all() {
        let routed = sc
            .clone()
            .with_cluster(policy)
            .run(ExecutionMode::Virtualized, tasks.clone());
        assert_bit_identical(&direct, &routed, &format!("{policy} heterogeneous"));
    }
}

// ---------------------------------------------------------------------------
// Golden: Table III through a one-device cluster
// ---------------------------------------------------------------------------

/// Scaled-down Table III: routing through the cluster front-end leaves the
/// artifact bit-identical to the direct path (fast proxy for the golden).
#[test]
fn table3_artifact_matches_direct_path_through_cluster() {
    use gvirt::harness::repro;
    let direct = repro::table3(&Scenario::default(), 64);
    for policy in PlacePolicy::all() {
        let routed = repro::table3(&Scenario::default().with_cluster(policy), 64);
        assert_eq!(
            direct.csv, routed.csv,
            "table3 CSV differs through a 1-device {policy} cluster"
        );
    }
}

/// Full paper scale: Table III regenerated through a one-device cluster is
/// bit-identical to the checked-in golden CSV (CI `cluster` job runs it
/// release-mode with `--ignored`).
#[test]
#[ignore = "full paper scale; run release-mode via the CI cluster job"]
fn table3_golden_bit_identical_through_cluster() {
    use gvirt::harness::repro;
    let golden =
        std::fs::read_to_string("results/table3.csv").expect("golden results/table3.csv present");
    let artifact = repro::table3(&Scenario::default().with_cluster(PlacePolicy::BinPack), 1);
    assert_eq!(
        artifact.csv,
        Some(golden),
        "table3 CSV drifted from the golden when routed through the cluster front-end"
    );
}
