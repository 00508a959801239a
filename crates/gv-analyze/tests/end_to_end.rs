//! End-to-end checks for `gv-analyze`: clean deterministic runs produce
//! zero diagnostics, and each seeded violation produces exactly the
//! expected one.

use gv_cuda::CudaDevice;
use gv_gpu::{DeviceConfig, GpuDevice};
use gv_ipc::{Node, NodeConfig, ShmRegistry};
use gv_kernels::{vecadd, Benchmark, BenchmarkId};
use gv_sim::{SimDuration, Simulation};
use gv_virt::{ClientPolicy, Gvm, GvmConfig, VgpuClient};
use proptest::prelude::*;

/// Run an n-rank fault-free functional vecadd through the GVM with
/// analysis recording on, and return the finished simulation's tracer.
fn clean_gvm_run(nranks: usize, elems: usize) -> gv_sim::trace::Tracer {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());

    let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..nranks)
        .map(|r| {
            let a: Vec<f32> = (0..elems).map(|i| (i + r * 1000) as f32).collect();
            let b: Vec<f32> = (0..elems).map(|i| (i * 2) as f32).collect();
            (a, b)
        })
        .collect();
    let tasks: Vec<_> = inputs
        .iter()
        .map(|(a, b)| vecadd::functional_task(&cfg, a, b))
        .collect();

    let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(nranks), tasks);
    for rank in 0..nranks {
        let handle = handle.clone();
        let inputs = inputs.clone();
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            let client = VgpuClient::connect(ctx, &handle, rank);
            let (_run, out) = client.run_task(ctx);
            let got = vecadd::decode_output(&out.expect("functional output"));
            let (a, b) = &inputs[rank];
            assert_eq!(got, vecadd::reference(a, b), "rank {rank} output wrong");
        })
        .unwrap();
    }
    let h2 = handle.clone();
    let dev2 = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h2.done.wait(ctx);
        dev2.shutdown(ctx);
    });
    let tracer = sim.tracer();
    sim.run().unwrap();
    tracer
}

/// A clean fault-free run trips none of the three checkers, while all
/// three actually saw events (the run is not vacuously clean).
#[test]
fn clean_run_reports_zero_diagnostics() {
    let tracer = clean_gvm_run(2, 256);
    let report = gv_analyze::analyze_tracer(&tracer);
    assert!(
        report.is_clean(),
        "unexpected diagnostics:\n{}",
        report.render()
    );
    assert!(report.shm_accesses > 0, "race detector saw no accesses");
    assert!(
        report.proto_messages > 0,
        "conformance linter saw no receipts"
    );
    assert!(report.device_events > 0, "device checker saw no events");
}

/// Fault-tolerant run where one rank dies before ever connecting: the GVM
/// evicts it at the barrier timeout and flushes at reduced width. The
/// eviction is a *recovery*, not a protocol violation — the trace must
/// still analyze clean.
#[test]
fn fault_tolerant_eviction_run_is_clean() {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let a: Vec<f32> = (0..128).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..128).map(|i| (i * 3) as f32).collect();
    let tasks = vec![vecadd::functional_task(&cfg, &a, &b); 2];
    let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::fault_tolerant(2), tasks);

    // Rank 0 never talks to the GVM at all; rank 1 runs the full cycle.
    {
        let handle = handle.clone();
        node.spawn_pinned(&mut sim, 1, "spmd-1", move |ctx| {
            let client = VgpuClient::connect_with_policy(
                ctx,
                &handle,
                1,
                ClientPolicy::with_timeout(SimDuration::from_millis(10), 8),
            );
            let (_run, out) = client.try_run_task(ctx).expect("survivor completes");
            let got = vecadd::decode_output(&out.expect("functional output"));
            assert_eq!(got, vecadd::reference(&a, &b));
        })
        .unwrap();
    }
    let h2 = handle.clone();
    let dev2 = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h2.done.wait(ctx);
        dev2.shutdown(ctx);
    });
    let tracer = sim.tracer();
    sim.run().unwrap();

    assert_eq!(handle.stats.lock().evictions, 1, "rank 0 must be evicted");
    let report = gv_analyze::analyze_tracer(&tracer);
    assert!(
        report.is_clean(),
        "unexpected diagnostics:\n{}",
        report.render()
    );
}

/// Golden fixture: a client that skips REQ and opens with SND. The
/// fault-free GVM happily serves it (resources are pre-created), so only
/// the conformance linter can catch the violation — and it reports
/// exactly one diagnostic, at the SND, then resynchronizes.
#[test]
fn golden_snd_before_req_yields_one_conformance_diagnostic() {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..64).map(|i| (i + 7) as f32).collect();
    let tasks = vec![vecadd::functional_task(&cfg, &a, &b)];
    let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(1), tasks);
    {
        let handle = handle.clone();
        node.spawn_pinned(&mut sim, 0, "spmd-0", move |ctx| {
            let client = VgpuClient::connect(ctx, &handle, 0);
            // BUG under test: no client.req(ctx) before staging data.
            client.snd(ctx);
            client.str(ctx);
            client.stp_until_done(ctx);
            let out = client.rcv(ctx).expect("functional output");
            assert_eq!(vecadd::decode_output(&out), vecadd::reference(&a, &b));
            client.rls(ctx);
        })
        .unwrap();
    }
    let h2 = handle.clone();
    let dev2 = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h2.done.wait(ctx);
        dev2.shutdown(ctx);
    });
    let tracer = sim.tracer();
    sim.run().unwrap();

    let report = gv_analyze::analyze_tracer(&tracer);
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly the SND-before-REQ diagnostic:\n{}",
        report.render()
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.checker, "conformance");
    assert!(
        d.message.contains("SND") && d.message.contains("illegal in stage 'init'"),
        "unexpected message: {}",
        d.message
    );
}

/// Golden fixture: two processes write the same shared-memory range with
/// no synchronization between them. The schedule happens to space the
/// writes apart in simulated time, but there is no happens-before edge —
/// the detector must still flag exactly one race.
#[test]
fn golden_seeded_shm_race_yields_one_race_diagnostic() {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let reg = ShmRegistry::new(&NodeConfig::dual_xeon_x5560());
    let seg = reg.create("/gvm-race", 64).unwrap();

    for p in 0..2u64 {
        let seg = seg.clone();
        sim.spawn(&format!("writer-{p}"), move |ctx| {
            // Stagger in time only: no sync primitive orders the writes.
            ctx.hold(SimDuration::from_micros(1 + p * 50));
            seg.write(ctx, 0, &[p as u8; 16]).unwrap();
        });
    }
    let tracer = sim.tracer();
    sim.run().unwrap();

    let report = gv_analyze::analyze_tracer(&tracer);
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one race:\n{}",
        report.render()
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.checker, "race");
    assert!(
        d.message.contains("/gvm-race")
            && d.message.contains("writer-0")
            && d.message.contains("writer-1"),
        "unexpected message: {}",
        d.message
    );
}

/// Control for the race fixture: the same two writes ordered through a
/// channel (writer-0 signals, writer-1 waits) are not a race.
#[test]
fn channel_synchronized_writes_do_not_race() {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let reg = ShmRegistry::new(&NodeConfig::dual_xeon_x5560());
    let seg = reg.create("/gvm-sync", 64).unwrap();
    let ch: gv_sim::SimChannel<()> = gv_sim::SimChannel::unbounded();

    {
        let seg = seg.clone();
        let tx = ch.clone();
        sim.spawn("writer-0", move |ctx| {
            seg.write(ctx, 0, &[0u8; 16]).unwrap();
            tx.send(ctx, ()).unwrap();
        });
    }
    {
        let seg = seg.clone();
        sim.spawn("writer-1", move |ctx| {
            ch.recv(ctx).unwrap();
            seg.write(ctx, 0, &[1u8; 16]).unwrap();
        });
    }
    let tracer = sim.tracer();
    sim.run().unwrap();

    let report = gv_analyze::analyze_tracer(&tracer);
    assert!(report.is_clean(), "false positive:\n{}", report.render());
    assert_eq!(report.shm_accesses, 2);
}

/// Golden fixture: a dumped trace where two transfers overlap on the same
/// copy engine. The real device model never produces this, so the fixture
/// exercises the offline path: parse the dump, run the checkers, get
/// exactly one device diagnostic.
#[test]
fn golden_copy_engine_overlap_dump_yields_one_device_diagnostic() {
    let dump = "\
gv-analyze-trace v1
# seeded violation: cmd-2 starts on engine 0 while cmd-1 is still active
device dev=0 maxk=16
copyb t=1000 dev=0 eng=0 stream=1 label=cmd-1
copyb t=2000 dev=0 eng=0 stream=2 label=cmd-2
copye t=3000 dev=0 eng=0 label=cmd-1
copye t=4000 dev=0 eng=0 label=cmd-2
";
    let records = gv_analyze::model::parse_dump(dump).unwrap();
    let report = gv_analyze::analyze(&records);
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly the overlap diagnostic:\n{}",
        report.render()
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.checker, "device");
    assert!(
        d.message.contains("'cmd-2' started while 'cmd-1'"),
        "unexpected message: {}",
        d.message
    );
}

/// Seeded fixture: a context switch that starts and never completes. The
/// device checker owns span pairing, so the offline path reports exactly
/// one device diagnostic.
#[test]
fn golden_unterminated_context_switch_dump_yields_one_device_diagnostic() {
    let dump = "\
gv-analyze-trace v1
# seeded violation: the switch to context 2 never completes
device dev=0 maxk=16
ctxb t=1000 dev=0 ctx=1
ctxe t=2000 dev=0 ctx=1
ctxb t=3000 dev=0 ctx=2
";
    let records = gv_analyze::model::parse_dump(dump).unwrap();
    let report = gv_analyze::analyze(&records);
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
    let d = &report.diagnostics[0];
    assert_eq!(d.checker, "device");
    assert!(
        d.message.contains("switch to context 2 never completed"),
        "unexpected message: {}",
        d.message
    );
}

/// A real run's records survive the dump format round-trip, and the
/// re-parsed trace analyzes identically (clean, same event counts).
#[test]
fn dump_roundtrip_preserves_analysis() {
    let tracer = clean_gvm_run(2, 128);
    let records = tracer.analysis_snapshot();
    let text = gv_analyze::model::to_dump(&records);
    let reparsed = gv_analyze::model::parse_dump(&text).unwrap();
    assert_eq!(records.len(), reparsed.len());

    let before = gv_analyze::analyze(&records);
    let after = gv_analyze::analyze(&reparsed);
    assert!(
        after.is_clean(),
        "roundtrip introduced diagnostics:\n{}",
        after.render()
    );
    assert_eq!(before.shm_accesses, after.shm_accesses);
    assert_eq!(before.proto_messages, after.proto_messages);
    assert_eq!(before.device_events, after.device_events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any fault-free schedule — varying rank count and problem size —
    /// analyzes clean. The GVM's synchronization (channels, the STR
    /// barrier) must always produce the happens-before edges that order
    /// its shared-memory traffic.
    #[test]
    fn random_fault_free_schedules_are_clean(nranks in 1usize..=3, elems in 16usize..=96) {
        let tracer = clean_gvm_run(nranks, elems);
        let report = gv_analyze::analyze_tracer(&tracer);
        prop_assert!(report.is_clean(), "diagnostics:\n{}", report.render());
    }
}

/// Scheduler-throughput scenario (non-functional, timed tasks) also
/// analyzes clean — covers the DMA/kernel device records at scale.
#[test]
fn timed_benchmark_run_is_clean() {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let tasks: Vec<_> = (0..3)
        .map(|_| Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 100))
        .collect();
    let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(3), tasks);
    for rank in 0..3 {
        let handle = handle.clone();
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            let client = VgpuClient::connect(ctx, &handle, rank);
            let _ = client.run_task(ctx);
        })
        .unwrap();
    }
    let h2 = handle.clone();
    let dev2 = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h2.done.wait(ctx);
        dev2.shutdown(ctx);
    });
    let tracer = sim.tracer();
    sim.run().unwrap();

    let report = gv_analyze::analyze_tracer(&tracer);
    assert!(
        report.is_clean(),
        "unexpected diagnostics:\n{}",
        report.render()
    );
    assert!(report.device_events > 0);
}
