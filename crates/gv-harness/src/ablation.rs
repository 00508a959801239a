//! Ablation studies: how much does each Fermi/GVM mechanism contribute?
//!
//! The paper argues its gains come from three mechanisms working jointly —
//! concurrent kernel execution, copy/compute overlap with bidirectional
//! DMA, and the elimination of context creation/switching. It never
//! separates them. These ablations do:
//!
//! * **NoConcurrentKernels** — window limited to 1 kernel (pre-Fermi);
//! * **UnifiedCopyEngine** — D2H shares the H2D engine (one copy engine,
//!   no bidirectional overlap — a GTX 280-class DMA block);
//! * **SerialFlush** — the GVM drains each process's stream before
//!   flushing the next (a naive time-sharing manager: contexts are still
//!   shared, but nothing overlaps).

use gv_kernels::{Benchmark, BenchmarkId};
use serde::Serialize;

use crate::report::{ms, x, Artifact, TextTable};
use crate::scenario::{ExecutionMode, Scenario};
use gv_virt::{FaultPlan, GvmConfig};

/// Which mechanism is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Ablation {
    /// Everything enabled (the paper's configuration).
    Full,
    /// One kernel at a time on the device.
    NoConcurrentKernels,
    /// One copy engine shared by both directions.
    UnifiedCopyEngine,
    /// GVM flushes streams one at a time, draining in between.
    SerialFlush,
}

impl Ablation {
    /// All variants in presentation order.
    pub fn all() -> [Ablation; 4] {
        [
            Ablation::Full,
            Ablation::NoConcurrentKernels,
            Ablation::UnifiedCopyEngine,
            Ablation::SerialFlush,
        ]
    }
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ablation::Full => write!(f, "full (paper config)"),
            Ablation::NoConcurrentKernels => write!(f, "no concurrent kernels"),
            Ablation::UnifiedCopyEngine => write!(f, "single copy engine"),
            Ablation::SerialFlush => write!(f, "serial GVM flush"),
        }
    }
}

/// One ablation measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AblationPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Disabled mechanism.
    pub ablation: Ablation,
    /// Virtualized turnaround under the ablation, ms.
    pub vt_ms: f64,
    /// Speedup over the (un-ablated) conventional baseline.
    pub speedup: f64,
}

/// Run the virtualized experiment under `ablation`.
pub fn run_virtualized_ablated(
    scenario: &Scenario,
    benchmark: BenchmarkId,
    n: usize,
    scale_down: u32,
    ablation: Ablation,
) -> f64 {
    let mut device_cfg = scenario.device.clone();
    let mut gvm_cfg = GvmConfig::new(n);
    match ablation {
        Ablation::Full => {}
        Ablation::NoConcurrentKernels => device_cfg.max_concurrent_kernels = 1,
        Ablation::UnifiedCopyEngine => device_cfg.unified_copy_engine = true,
        Ablation::SerialFlush => gvm_cfg.serial_flush = true,
    }
    let task = if scale_down <= 1 {
        Benchmark::paper_task(benchmark, &device_cfg)
    } else {
        Benchmark::scaled_task(benchmark, &device_cfg, scale_down)
    };

    let ablated = Scenario {
        device: device_cfg,
        ..scenario.clone()
    };
    ablated
        .run_wave(gvm_cfg, vec![task; n], &FaultPlan::default())
        .group_ms
}

/// Full ablation sweep for one benchmark at `n` processes.
pub fn sweep(
    scenario: &Scenario,
    benchmark: BenchmarkId,
    n: usize,
    scale_down: u32,
) -> Vec<AblationPoint> {
    let task = if scale_down <= 1 {
        Benchmark::paper_task(benchmark, &scenario.device)
    } else {
        Benchmark::scaled_task(benchmark, &scenario.device, scale_down)
    };
    let baseline = scenario
        .run_uniform(ExecutionMode::Direct, &task, n)
        .turnaround_ms;
    let name = Benchmark::describe(benchmark).name.to_string();
    Ablation::all()
        .into_iter()
        .map(|ab| {
            let vt_ms = run_virtualized_ablated(scenario, benchmark, n, scale_down, ab);
            AblationPoint {
                benchmark: name.clone(),
                ablation: ab,
                vt_ms,
                speedup: baseline / vt_ms,
            }
        })
        .collect()
}

/// `repro ablations`: every variant for VectorAdd, EP and CG at the
/// node's full width.
pub fn artifact(sc: &Scenario, scale_down: u32) -> Artifact {
    let n = sc.node.cores;
    let mut table = TextTable::new(vec![
        "Benchmark",
        "Variant",
        "T_vt (ms)",
        "Speedup vs direct",
    ]);
    for id in [BenchmarkId::VecAdd, BenchmarkId::Ep, BenchmarkId::Cg] {
        for p in sweep(sc, id, n, scale_down) {
            table.row(vec![
                p.benchmark.clone(),
                p.ablation.to_string(),
                ms(p.vt_ms),
                x(p.speedup),
            ]);
        }
    }
    let text = format!(
        "ABLATIONS — MECHANISM CONTRIBUTIONS AT {n} PROCESSES (scale 1/{scale_down})\n\n{}\n\
         Variants: {} / {} / {} / {}\n",
        table.render(),
        Ablation::Full,
        Ablation::NoConcurrentKernels,
        Ablation::UnifiedCopyEngine,
        Ablation::SerialFlush,
    );
    Artifact::new("ablations", text, Some(table.to_csv()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disabling concurrent kernels must hurt EP (its gains are exactly
    /// concurrency), while the full config is the fastest variant.
    #[test]
    fn ep_depends_on_concurrent_kernels() {
        let sc = Scenario::default();
        let pts = sweep(&sc, BenchmarkId::Ep, 4, 64);
        let get = |ab: Ablation| pts.iter().find(|p| p.ablation == ab).unwrap().vt_ms;
        let full = get(Ablation::Full);
        let no_cke = get(Ablation::NoConcurrentKernels);
        let serial = get(Ablation::SerialFlush);
        assert!(
            no_cke > 2.0 * full,
            "EP without CKE should collapse: full {full:.1} ms, no-CKE {no_cke:.1} ms"
        );
        assert!(serial >= no_cke * 0.9, "serial flush is at least as bad");
        for p in &pts {
            assert!(
                p.vt_ms >= full * 0.999,
                "{:?} beat the full config",
                p.ablation
            );
        }
    }

    /// The serial-flush schedule (each rank's stream drained before the
    /// next rank is flushed) is pinned to the nanosecond: 8 processes at
    /// scale 1/64.
    #[test]
    fn serial_flush_turnaround_is_pinned() {
        let sc = Scenario::default();
        for (benchmark, ns) in [
            (BenchmarkId::VecAdd, 21_336_933u64),
            (BenchmarkId::Ep, 1_119_706_448),
            (BenchmarkId::Cg, 47_156_520),
        ] {
            let vt_ms = run_virtualized_ablated(&sc, benchmark, 8, 64, Ablation::SerialFlush);
            assert_eq!(vt_ms, ns as f64 / 1.0e6, "{benchmark:?}");
        }
    }

    /// A single copy engine must hurt an I/O benchmark's pipeline but
    /// leave compute-bound EP almost untouched.
    #[test]
    fn unified_copy_engine_hurts_io_not_compute() {
        let sc = Scenario::default();
        let va = sweep(&sc, BenchmarkId::VecAdd, 4, 32);
        let get = |pts: &[AblationPoint], ab: Ablation| {
            pts.iter().find(|p| p.ablation == ab).unwrap().vt_ms
        };
        let va_penalty = get(&va, Ablation::UnifiedCopyEngine) / get(&va, Ablation::Full);
        assert!(
            va_penalty > 1.05,
            "VectorAdd should lose >5% without bidirectional DMA, lost {:.1}%",
            (va_penalty - 1.0) * 100.0
        );
        let ep = sweep(&sc, BenchmarkId::Ep, 4, 64);
        let ep_penalty = get(&ep, Ablation::UnifiedCopyEngine) / get(&ep, Ablation::Full);
        assert!(
            ep_penalty < 1.02,
            "EP barely moves data; unified engine cost {:.1}%",
            (ep_penalty - 1.0) * 100.0
        );
    }
}
