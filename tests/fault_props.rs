//! State-machine properties of the fault-tolerant GVM: for *arbitrary*
//! seeded fault schedules ([`FaultPlan::random`]) and arbitrary client
//! start staggering, the protocol state machine must
//!
//! 1. **never deadlock** — the simulation always terminates with the
//!    `done` gate open (timed receives + idle eviction guarantee progress);
//! 2. **never leak device memory** — evicted, released, and NAKed ranks
//!    all return the allocator to zero;
//! 3. **keep survivors correct** — any rank that completes, and whose
//!    shared-memory segment was not a corruption target, produces the
//!    bit-exact CPU reference result;
//! 4. **replay deterministically** — the same plan and stagger yield the
//!    same per-rank outcomes and the same fault-event trace.

use gvirt::cuda::CudaDevice;
use gvirt::gpu::{DeviceConfig, GpuDevice};
use gvirt::ipc::{Node, NodeConfig};
use gvirt::kernels::vecadd;
use gvirt::sim::{SimDuration, Simulation};
use gvirt::virt::{ClientPolicy, FaultPlan, FaultSpec, Gvm, GvmConfig, TaskError, VgpuClient};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const RANKS: usize = 4;

/// One deterministic run: per-rank results, allocator residue, fault trace.
struct Outcome {
    /// `(rank, result)` sorted by rank; `Ok(bytes)` is the functional output.
    results: Vec<(usize, Result<Vec<u8>, TaskError>)>,
    used_after: u64,
    evictions: u64,
    fault_labels: Vec<String>,
}

fn run_plan(plan: &FaultPlan, stagger_us: &[u64; RANKS]) -> Outcome {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..RANKS)
        .map(|r| {
            let a: Vec<f32> = (0..128).map(|i| (i + r * 1000) as f32).collect();
            let b: Vec<f32> = (0..128).map(|i| (i * 3 + r) as f32).collect();
            (a, b)
        })
        .collect();
    let tasks: Vec<_> = inputs
        .iter()
        .map(|(a, b)| vecadd::functional_task(&cfg, a, b))
        .collect();
    let handle = Gvm::install(
        &mut sim,
        &node,
        &cuda,
        GvmConfig::fault_tolerant(RANKS),
        tasks,
    );
    plan.install(&handle, &device);
    let tracer = sim.tracer();
    type Results = Arc<Mutex<Vec<(usize, Result<Vec<u8>, TaskError>)>>>;
    let results: Results = Arc::new(Mutex::new(Vec::new()));
    for (rank, &stag) in stagger_us.iter().enumerate().take(RANKS) {
        let handle = handle.clone();
        let results = results.clone();
        let abort = plan.abort_stage(rank);
        let delay = SimDuration::from_micros(stag);
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            ctx.hold(delay);
            let policy = ClientPolicy::with_timeout(SimDuration::from_millis(10), 5);
            let mut client = VgpuClient::connect_with_policy(ctx, &handle, rank, policy);
            if let Some(stage) = abort {
                client.abort_at(stage);
            }
            let res = client
                .try_run_task(ctx)
                .map(|(_, out)| out.expect("functional output"));
            results.lock().push((rank, res));
        })
        .unwrap();
    }
    let h2 = handle.clone();
    let dev2 = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h2.done.wait(ctx);
        dev2.shutdown(ctx);
    });
    // Property 1: this `unwrap` *is* the no-deadlock assertion — a stuck
    // state machine would surface as `SimError::Deadlock` here.
    sim.run().unwrap();
    let mut results = Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("client still running"))
        .into_inner();
    results.sort_by_key(|(r, _)| *r);
    let evictions = handle.stats.lock().evictions;
    Outcome {
        results,
        used_after: device.with_memory(|m| m.used()),
        evictions,
        fault_labels: tracer
            .fault_events()
            .iter()
            .map(|(time, label)| format!("{} {label}", time.as_nanos()))
            .collect(),
    }
}

/// Ranks whose shm segment is a corruption target (their data path is
/// deliberately poisoned, so bit-exactness is not expected).
fn corrupted_ranks(plan: &FaultPlan) -> Vec<usize> {
    plan.faults
        .iter()
        .filter_map(|f| match f {
            FaultSpec::ShmCorrupt { rank, .. } => Some(*rank),
            _ => None,
        })
        .collect()
}

proptest! {
    // Every case runs 2 full multi-threaded simulations (replay check);
    // keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_fault_schedules_never_deadlock_leak_or_corrupt_survivors(
        seed in 0u64..1_000_000,
        nfaults in 0usize..8,
        s0 in 0u64..2_000, // per-rank join stagger, 0..2ms
        s1 in 0u64..2_000,
        s2 in 0u64..2_000,
        s3 in 0u64..2_000,
    ) {
        let stagger = [s0, s1, s2, s3];
        let plan = FaultPlan::random(seed, RANKS, nfaults);
        let out = run_plan(&plan, &stagger);

        // Property 2: no device-memory leak, whatever happened.
        prop_assert_eq!(out.used_after, 0, "plan {:?} leaked", plan);
        prop_assert!(out.evictions as usize <= RANKS);

        // Property 3: completed, uncorrupted ranks are bit-exact.
        let poisoned = corrupted_ranks(&plan);
        for (rank, res) in &out.results {
            if let Ok(bytes) = res {
                if poisoned.contains(rank) {
                    continue;
                }
                let got: Vec<u32> =
                    vecadd::decode_output(bytes).iter().map(|f| f.to_bits()).collect();
                let a: Vec<f32> = (0..128).map(|i| (i + rank * 1000) as f32).collect();
                let b: Vec<f32> = (0..128).map(|i| (i * 3 + rank) as f32).collect();
                let want: Vec<u32> =
                    vecadd::reference(&a, &b).iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(got, want, "rank {} wrong under plan {:?}", rank, plan);
            }
        }

        // Property 4: identical plan + stagger replays identically.
        let replay = run_plan(&plan, &stagger);
        prop_assert_eq!(replay.fault_labels, out.fault_labels);
        let fmt = |o: &Outcome| -> Vec<String> {
            o.results
                .iter()
                .map(|(r, res)| match res {
                    Ok(b) => format!("{r} ok {b:?}"),
                    Err(e) => format!("{r} err {e:?}"),
                })
                .collect()
        };
        prop_assert_eq!(fmt(&replay), fmt(&out));
    }
}
