//! Beyond strict SPMD: the GVM's per-rank resources support a *mixed*
//! workload — different benchmarks on different ranks sharing the GPU
//! simultaneously. The paper's abstract claims the GPU can be shared "to
//! compute different applications or multiple instances of the same
//! application"; this exercises the first half.

use std::sync::Arc;

use gvirt::cuda::CudaDevice;
use gvirt::gpu::{DeviceConfig, GpuDevice};
use gvirt::harness::timeline::Timeline;
use gvirt::ipc::{Node, NodeConfig};
use gvirt::kernels::{Benchmark, BenchmarkId, GpuTask};
use gvirt::sim::Simulation;
use gvirt::virt::{Gvm, GvmConfig, TaskRun, VgpuClient};
use parking_lot::Mutex;

fn run_mix(tasks: Vec<GpuTask>, trace: bool) -> (Vec<TaskRun>, Option<Timeline>, u64) {
    let n = tasks.len();
    let mut sim = Simulation::new();
    let tracer = sim.tracer();
    tracer.set_analysis(trace);
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg);
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(n), tasks);
    let runs: Arc<Mutex<Vec<TaskRun>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..n {
        let handle = handle.clone();
        let runs = runs.clone();
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            let client = VgpuClient::connect(ctx, &handle, rank);
            let (run, _) = client.run_task(ctx);
            runs.lock().push(run);
        })
        .unwrap();
    }
    let h = handle.clone();
    let dev = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h.done.wait(ctx);
        dev.shutdown(ctx);
    });
    sim.run().unwrap();
    let mut collected = runs.lock().clone();
    collected.sort_by_key(|r| r.rank);
    let switches = device.stats().ctx_switches;
    let tl = trace.then(|| Timeline::from_records(&tracer.analysis_snapshot()));
    (collected, tl, switches)
}

/// Four different benchmarks share the GPU through one GVM, concurrently,
/// with zero context switches.
#[test]
fn four_different_apps_share_one_context() {
    let cfg = DeviceConfig::tesla_c2070_paper();
    let tasks = vec![
        Benchmark::scaled_task(BenchmarkId::Ep, &cfg, 64),
        Benchmark::scaled_task(BenchmarkId::Cg, &cfg, 64),
        Benchmark::scaled_task(BenchmarkId::Mg, &cfg, 64),
        Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 64),
    ];
    let (runs, tl, switches) = run_mix(tasks, true);
    assert_eq!(runs.len(), 4);
    assert_eq!(switches, 0);
    let tl = tl.unwrap();
    assert!(
        tl.kernels_overlap(),
        "kernels of different applications should coexist on the device"
    );
}

/// The mixed group's makespan beats running the same mix through
/// conventional sharing — the headline claim generalizes past SPMD.
#[test]
fn mixed_group_still_beats_direct() {
    use gvirt::harness::scenario::{ExecutionMode, Scenario};
    let sc = Scenario::default();
    let cfg = &sc.device;
    let mix = [
        Benchmark::scaled_task(BenchmarkId::Ep, cfg, 64),
        Benchmark::scaled_task(BenchmarkId::Cg, cfg, 64),
        Benchmark::scaled_task(BenchmarkId::VecAdd, cfg, 64),
    ];
    let direct = sc.run(ExecutionMode::Direct, mix.to_vec());
    let virt = sc.run(ExecutionMode::Virtualized, mix.to_vec());
    assert!(
        virt.turnaround_ms < direct.turnaround_ms,
        "virtualized {:.1} ms vs direct {:.1} ms",
        virt.turnaround_ms,
        direct.turnaround_ms
    );
    // The direct run pays per-task switch costs of *different* magnitudes
    // (each task carries its own measured cost).
    assert_eq!(direct.device.ctx_switches, 2);
}

/// Per-rank shared-memory segments are sized for their own task — a big
/// VectorAdd next to tiny EPs must not inflate the small ranks' costs.
#[test]
fn per_rank_resources_are_independent() {
    let cfg = DeviceConfig::tesla_c2070_paper();
    let tasks = vec![
        Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 8), // big I/O
        Benchmark::scaled_task(BenchmarkId::Ep, &cfg, 64),    // no input at all
    ];
    let (runs, _, _) = run_mix(tasks, false);
    // EP stages no input: its SND phase is pure messaging (< 1 ms), even
    // though rank 0 pushes tens of MB through its own segment.
    let ep_run = &runs[1];
    assert!(
        ep_run.t_data_in() < 1.0,
        "EP's data-in phase should be trivial, was {:.3} ms",
        ep_run.t_data_in()
    );
}
