//! Differential oracle for the gv-mem buffer-lifecycle layer: chunked,
//! pooled staging is a performance knob, never a semantic one. Every
//! benchmark family × group size must produce rank-by-rank bit-identical
//! functional output whether payloads move as one serial span or as
//! interleaved chunks through recycled pool buffers, and both must match
//! the conventional direct-sharing baseline.
//!
//! The file also pins two invariants the refactor must preserve:
//! * `SND` and `RCV` staging share one span-wise path, so equal payloads
//!   charge the GVM equal `copy_time` in both directions;
//! * the default (chunking-off) configuration leaves the paper-faithful
//!   `table3` artifact bit-identical to the checked-in golden CSV.

use gvirt::gpu::{DeviceConfig, KernelDesc};
use gvirt::harness::repro;
use gvirt::harness::scenario::{ExecutionMode, Scenario};
use gvirt::kernels::{blackscholes, ep, mm, vecadd, GpuTask, KernelTemplate};
use gvirt::mem::{AdaptiveChooser, PipelineConfig};
use gvirt::sim::SimDuration;
use gvirt::virt::MemConfig;
use proptest::prelude::*;

/// Chunked configurations under test: a 64-byte threshold makes even the
/// small functional payloads split, at several chunk counts.
fn mem_configs() -> Vec<(String, MemConfig)> {
    let mut v = vec![("serial".to_string(), MemConfig::default())];
    for k in [2usize, 3, 8] {
        v.push((format!("chunked-{k}"), MemConfig::pipelined(k, 64)));
    }
    v
}

/// The adaptive-k / steady-state matrix layered on top: model-driven chunk
/// counts, iteration-overlapped prefetch, and the first-round-only
/// ablation schedule must all stay semantics-free too.
fn steady_configs() -> Vec<(String, MemConfig)> {
    let mut v = Vec::new();
    for cap in [2usize, 4, 8] {
        v.push((format!("adaptive-{cap}"), MemConfig::adaptive(cap, 64)));
        v.push((
            format!("adaptive-{cap}-steady"),
            MemConfig::adaptive(cap, 64).with_steady(),
        ));
    }
    v.push((
        "chunked-4-steady".to_string(),
        MemConfig::pipelined(4, 64).with_steady(),
    ));
    v.push((
        "first-round-only".to_string(),
        MemConfig::pipelined(4, 64).with_first_round_only(),
    ));
    v
}

/// Rank-distinct functional tasks for one benchmark family.
fn tasks_for(benchmark: &str, cfg: &DeviceConfig, n: usize) -> Vec<GpuTask> {
    (0..n)
        .map(|rank| match benchmark {
            "vecadd" => {
                let a: Vec<f32> = (0..192).map(|i| (i * (rank + 1)) as f32 * 0.25).collect();
                let b: Vec<f32> = (0..192).map(|i| (i + rank * 1000) as f32).collect();
                vecadd::functional_task(cfg, &a, &b)
            }
            "ep" => ep::functional_task(cfg, 8 + (rank % 3) as u32),
            "mm" => {
                let dim = 8;
                let a: Vec<f32> = (0..dim * dim)
                    .map(|i| ((i * 7 + rank * 13) % 17) as f32 - 8.0)
                    .collect();
                let b: Vec<f32> = (0..dim * dim)
                    .map(|i| ((i * 3 + rank * 5) % 11) as f32 * 0.5)
                    .collect();
                mm::functional_task(cfg, &a, &b, dim)
            }
            "blackscholes" => {
                let (s, x, t) = blackscholes::generate_options(48, 7 + rank as u64);
                blackscholes::functional_task(cfg, &s, &x, &t)
            }
            other => panic!("unknown benchmark family {other}"),
        })
        .collect()
}

/// Outputs of one run, unwrapped (all these tasks are functional).
fn outputs(result: &gvirt::harness::scenario::ExperimentResult) -> Vec<Vec<u8>> {
    result
        .outputs
        .iter()
        .map(|o| o.clone().expect("functional task must produce output"))
        .collect()
}

/// Every mem config × benchmark × N: virtualized outputs are bit-identical
/// to the direct baseline, rank by rank — chunk boundaries and pool reuse
/// never leak into results.
#[test]
fn chunked_and_pooled_match_direct_baseline_bitwise() {
    let base = Scenario::default();
    for benchmark in ["vecadd", "ep", "mm", "blackscholes"] {
        for n in [2usize, 4, 8] {
            let tasks = tasks_for(benchmark, &base.device, n);
            let baseline = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
            for (label, mem) in mem_configs() {
                let scenario = base.clone().with_mem(mem);
                let got = outputs(&scenario.run(ExecutionMode::Virtualized, tasks.clone()));
                assert_eq!(
                    got.len(),
                    baseline.len(),
                    "{benchmark} n={n} {label}: ranks"
                );
                for (rank, (g, want)) in got.iter().zip(&baseline).enumerate() {
                    assert_eq!(
                        g, want,
                        "{benchmark} n={n} {label}: rank {rank} output differs"
                    );
                }
            }
        }
    }
}

/// Steady state is a scheduling change, never a data change: every rank
/// repeating its SND→STR→STP→RCV cycle for several rounds inside one
/// session — with iteration-overlapped prefetch, adaptive chunk counts,
/// or the first-round-only ablation — produces output bit-identical to
/// the single-round direct baseline (each round recomputes the same
/// result, so the last round's RCV must match round one's).
#[test]
fn multi_round_steady_state_matches_direct_baseline_bitwise() {
    let base = Scenario::default();
    for benchmark in ["vecadd", "mm"] {
        for n in [2usize, 4] {
            let tasks = tasks_for(benchmark, &base.device, n);
            let baseline = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
            for rounds in [2u32, 3] {
                for (label, mem) in steady_configs() {
                    let scenario = base.clone().with_mem(mem).with_rounds(rounds);
                    let got = outputs(&scenario.run(ExecutionMode::Virtualized, tasks.clone()));
                    assert_eq!(got.len(), baseline.len(), "{benchmark} n={n} {label}");
                    for (rank, (g, want)) in got.iter().zip(&baseline).enumerate() {
                        assert_eq!(
                            g, want,
                            "{benchmark} n={n} rounds={rounds} {label}: \
                             rank {rank} output differs"
                        );
                    }
                }
            }
        }
    }
}

/// The steady-state matrix really prefetches (it isn't just re-running the
/// per-round path): a multi-round steady run reports pre-issued uploads,
/// and the first-round-only ablation reports none.
#[test]
fn steady_matrix_exercises_the_prefetch_path() {
    let base = Scenario::default();
    let tasks = tasks_for("vecadd", &base.device, 2);
    let steady = base
        .clone()
        .with_mem(MemConfig::pipelined(3, 64).with_steady())
        .with_rounds(3);
    let r = steady.run(ExecutionMode::Virtualized, tasks.clone());
    let gvm = r.gvm.expect("virtualized run has GVM stats");
    assert!(
        gvm.steady_prefetches > 0,
        "multi-round steady run must pre-issue next-round uploads"
    );
    let ablated = base
        .clone()
        .with_mem(MemConfig::pipelined(3, 64).with_first_round_only())
        .with_rounds(3);
    let r = ablated.run(ExecutionMode::Virtualized, tasks);
    let gvm = r.gvm.expect("virtualized run has GVM stats");
    assert_eq!(
        gvm.steady_prefetches, 0,
        "the ablation schedule never pre-issues"
    );
}

/// Chunked mode really chunks (the matrix above isn't vacuous) and keeps
/// turnaround identical to serial staging for these sub-threshold-scale
/// workloads only where the model says so — here we only pin that stats
/// prove the chunked path was exercised.
#[test]
fn chunked_matrix_exercises_the_chunked_path() {
    let base = Scenario::default();
    let tasks = tasks_for("vecadd", &base.device, 2);
    let scenario = base.clone().with_mem(MemConfig::pipelined(3, 64));
    let r = scenario.run(ExecutionMode::Virtualized, tasks);
    let gvm = r.gvm.expect("virtualized run has GVM stats");
    assert!(gvm.chunked_transfers > 0, "no transfer was chunked");
    assert!(gvm.chunks_submitted >= gvm.chunked_transfers * 3);
}

/// A timing-only task with the given payload shape: one trivial kernel,
/// `bytes_in` staged in, `bytes_out` staged out.
fn payload_only_task(bytes_in: u64, bytes_out: u64) -> GpuTask {
    GpuTask {
        name: "payload".into(),
        class: gvirt::kernels::WorkloadClass::IoIntensive,
        ctx_switch_cost: SimDuration::ZERO,
        device_bytes: (bytes_in + bytes_out).max(1),
        iterations: 1,
        bytes_in,
        round_bytes_in: Vec::new(),
        input: None,
        bytes_out,
        d2h_offset: bytes_in,
        kernels: vec![KernelTemplate::timing(KernelDesc::new("noop", 1, 32))],
    }
}

/// The deduped staging path charges the same `copy_time` for a payload
/// whichever direction it moves: an input-only task and an output-only
/// task of equal size cost the GVM the same staging time.
#[test]
fn snd_and_rcv_staging_cost_the_same_for_equal_payloads() {
    let base = Scenario::default();
    let payload = 3 << 20;
    let run = |task: GpuTask| {
        let r = base.run_uniform(ExecutionMode::Virtualized, &task, 4);
        let gvm = r.gvm.expect("virtualized run has GVM stats");
        (gvm.copy_time, gvm.snd_copies, gvm.rcv_copies)
    };
    let (in_time, in_snd, in_rcv) = run(payload_only_task(payload, 0));
    let (out_time, out_snd, out_rcv) = run(payload_only_task(0, payload));
    assert_eq!((in_snd, in_rcv), (4, 0));
    assert_eq!((out_snd, out_rcv), (0, 4));
    assert_eq!(
        in_time.as_nanos(),
        out_time.as_nanos(),
        "SND and RCV staging must charge identical copy_time for identical payloads"
    );
    // And chunking doesn't change the total staged-byte cost either way.
    let chunked = base.clone().with_mem(MemConfig::pipelined(4, 64));
    let rc = chunked.run_uniform(
        ExecutionMode::Virtualized,
        &payload_only_task(payload, 0),
        4,
    );
    let cc = chunked.run_uniform(
        ExecutionMode::Virtualized,
        &payload_only_task(0, payload),
        4,
    );
    assert_eq!(
        rc.gvm.expect("stats").copy_time.as_nanos(),
        cc.gvm.expect("stats").copy_time.as_nanos(),
        "chunked SND/RCV staging symmetry"
    );
}

/// The default configuration (pool on, chunking off) leaves the headline
/// reproduction artifact untouched: a full-scale `table3` regeneration is
/// bit-identical to the golden CSV. Full paper scale (≈20 s release) — the
/// CI `pipeline` job runs it with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full paper scale; run release-mode via the CI pipeline job"]
fn table3_golden_bit_identical_under_default_mem_config() {
    let artifact = repro::table3(&Scenario::default(), 1);
    let golden =
        std::fs::read_to_string("results/table3.csv").expect("golden results/table3.csv present");
    assert_eq!(
        artifact.csv,
        Some(golden),
        "table3 CSV drifted from the checked-in golden"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random model rates, per-chunk overheads, caps, thresholds, and
    /// EWMA histories: the adaptive chooser is monotone in payload size
    /// (more bytes never mean fewer chunks — the pipeline win only grows)
    /// and the chosen `k` always lands in `[1, cap]`.
    #[test]
    fn adaptive_chooser_is_monotone_in_payload_and_never_exceeds_cap(
        cap in 1usize..=16,
        threshold_kib in 1u64..=1024,
        stage_cns in 1u64..=400,   // seed staging rate, ns/byte × 100
        xfer_cns in 1u64..=400,    // H2D rate, ns/byte × 100
        overhead_us in 1u64..=500, // fixed per-chunk overhead, µs
        obs_cns in 0u64..=800,     // observed staging rate, ns/byte × 100
        obs_count in 0u64..=16,
    ) {
        let chooser = AdaptiveChooser::new(
            stage_cns as f64 / 100.0,
            xfer_cns as f64 / 100.0,
            overhead_us as f64 * 1000.0,
        );
        for _ in 0..obs_count {
            // One representative 1 MiB staging sample per observation.
            chooser.observe_stage(1 << 20, (obs_cns << 20) / 100);
        }
        let cfg = PipelineConfig::adaptive(cap, threshold_kib << 10);
        let mut prev = 0u64;
        for shift in 10..=30 {
            let payload = 1u64 << shift; // 1 KiB .. 1 GiB
            let k = chooser.choose(payload, &cfg);
            prop_assert!(k >= 1, "k must be positive, got {} at {} B", k, payload);
            prop_assert!(
                k <= cap as u64,
                "cap {} exceeded at {} B: k = {}", cap, payload, k
            );
            if payload < cfg.threshold {
                prop_assert_eq!(k, 1, "sub-threshold payloads stay serial");
            } else {
                prop_assert!(
                    k >= prev,
                    "k dropped from {} to {} at {} B", prev, k, payload
                );
                prev = k;
            }
        }
    }

    /// Fixed (non-adaptive) configs obey the same bounds through the same
    /// entry point, and the first-round-only ablation flag never changes
    /// what the chooser itself returns (the schedule is the GVM's job).
    #[test]
    fn fixed_k_respects_threshold_and_cap(
        cap in 1usize..=16,
        threshold_kib in 1u64..=1024,
        payload_kib in 1u64..=(1 << 20),
    ) {
        let chooser = AdaptiveChooser::new(0.078, 0.125, 150_000.0);
        let payload = payload_kib << 10;
        let cfg = PipelineConfig::chunked(cap, threshold_kib << 10);
        let k = chooser.choose(payload, &cfg);
        prop_assert!((1..=cap as u64).contains(&k));
        if payload < cfg.threshold {
            prop_assert_eq!(k, 1);
        }
        let ablated = cfg.with_first_round_only();
        prop_assert_eq!(chooser.choose(payload, &ablated), k);
    }
}
