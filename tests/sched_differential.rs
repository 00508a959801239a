//! Differential oracle for the GVM scheduling policies: whatever order a
//! policy dispatches streams in, every rank's *functional output* must be
//! bit-identical to the conventional direct-sharing baseline. Dispatch
//! order is a performance knob, never a semantic one.
//!
//! Each rank gets *distinct* input data, so any cross-rank routing mistake
//! a reordering policy could make (FCFS interleavings, SJF reordering,
//! partial adaptive batches) shows up as a byte mismatch, not a
//! coincidental pass.
//!
//! The file also pins the paper-faithful default: the `table3` artifact
//! regenerated under the refactored `JointFlush` path is bit-identical to
//! the checked-in golden `results/table3.csv` (full scale, `#[ignore]`d in
//! the quick tier; the CI `sched` job runs it release-mode).

use gvirt::gpu::DeviceConfig;
use gvirt::harness::repro;
use gvirt::harness::scenario::{ExecutionMode, Scenario};
use gvirt::kernels::{blackscholes, ep, mm, vecadd, GpuTask};
use gvirt::sim::SimDuration;
use gvirt::virt::SchedPolicy;

/// The four policies under test, sized for an `n`-rank group.
fn policies(n: usize) -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::JointFlush,
        SchedPolicy::Fcfs,
        SchedPolicy::AdaptiveBatch {
            k: (n / 2).max(1),
            timeout: Some(SimDuration::from_micros(500)),
        },
        SchedPolicy::ShortestJobFirst,
    ]
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

/// Every policy × benchmark × N: virtualized outputs are bit-identical to
/// the direct baseline, rank by rank.
#[test]
fn all_policies_match_direct_baseline_bitwise() {
    let base = Scenario::default();
    for benchmark in ["vecadd", "ep", "mm", "blackscholes"] {
        for n in [2usize, 4, 8] {
            let tasks = tasks_for(benchmark, &base.device, n);
            let baseline = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
            for policy in policies(n) {
                let label = format!("{benchmark} n={n} policy={}", policy.name());
                let scenario = base.clone().with_scheduler(policy);
                let got = outputs(&scenario.run(ExecutionMode::Virtualized, tasks.clone()));
                assert_eq!(got.len(), baseline.len(), "{label}: rank count");
                for (rank, (g, want)) in got.iter().zip(&baseline).enumerate() {
                    assert_eq!(g, want, "{label}: rank {rank} output differs");
                }
            }
        }
    }
}

/// Staggered arrivals don't change results either: the reordering
/// policies dispatch early ranks alone, and every byte still matches.
#[test]
fn staggered_arrivals_preserve_outputs_under_every_policy() {
    let base = Scenario::default();
    let n = 4;
    let tasks = tasks_for("vecadd", &base.device, n);
    let baseline = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
    for policy in policies(n) {
        let label = format!("staggered policy={}", policy.name());
        let scenario = base
            .clone()
            .with_scheduler(policy)
            .with_stagger(SimDuration::from_micros(200));
        let got = outputs(&scenario.run(ExecutionMode::Virtualized, tasks.clone()));
        for (rank, (g, want)) in got.iter().zip(&baseline).enumerate() {
            assert_eq!(g, want, "{label}: rank {rank} output differs");
        }
    }
}

/// The default policy is still the paper's joint flush, so the headline
/// reproduction artifact is untouched by the scheduler refactor: a
/// full-scale `table3` regeneration is bit-identical to the golden CSV.
/// Full paper scale (≈20 s release, minutes debug) — the CI `sched` job
/// runs it with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full paper scale; run release-mode via the CI sched job"]
fn table3_golden_bit_identical_under_default_scheduler() {
    let artifact = repro::table3(&Scenario::default(), 1);
    let golden =
        std::fs::read_to_string("results/table3.csv").expect("golden results/table3.csv present");
    assert_eq!(
        artifact.csv,
        Some(golden),
        "table3 CSV drifted from the checked-in golden"
    );
}
