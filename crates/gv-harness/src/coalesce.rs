//! Cross-rank DMA coalescing and batched kernel launch sweep —
//! `repro coalesce`.
//!
//! Compares the per-rank flush (coalescing off, the seed schedule kept as
//! a config-selectable ablation) against the coalescing flush — staging
//! leases placed adjacently, wave-per-iteration submission, adjacent
//! same-direction transfers fused into one DMA submission per run, and
//! co-flushed ranks' kernel launches batched into grouped submissions —
//! over payload size at 8 processes.
//!
//! The workload is deliberately *launch-dense*: several small kernels per
//! iteration, so the per-submission fixed costs (DMA setup latency, host
//! launch overhead) that coalescing amortizes are a visible fraction of
//! each request. The headline metric is mean per-request *overhead*: the
//! mean per-rank turnaround of the virtualized run minus a single direct
//! (unvirtualized) execution of the same task. The acceptance gate is a
//! ≥ 25 % overhead reduction at the small-payload points; the largest
//! swept payload sits above the fuse threshold, pinning that oversized
//! transfers fall back to per-rank submission.
//!
//! With `analyze` on, every point's trace runs the full `gv-analyze`
//! suite — including the coalesce checker's manifest-partition,
//! command-fan-out, and generation-currency rules.

use gv_gpu::KernelDesc;
use gv_kernels::{vecadd, GpuTask, KernelTemplate};
use gv_model::coalesce_saving;
use gv_sim::SimDuration;
use gv_virt::MemConfig;

use crate::report::{bench_record, ms, pct, Artifact, TextTable};
use crate::scenario::Scenario;

/// Staged input payload sizes (KiB per rank) — the ISSUE's acceptance
/// points. 16 MiB sits above the default 4 MiB fuse threshold, so its
/// transfers must go down unfused.
pub const PAYLOADS_KIB: [u64; 3] = [64, 1024, 16384];

/// Process count for every swept point.
pub const NPROCS: usize = 8;

/// Kernel launches per iteration — the launch-dense shape whose host
/// overhead the batched submission amortizes.
pub const KERNELS_PER_ITER: usize = 32;

/// The workload: a VectorAdd-shaped timing-only task (`payload` in, half
/// that out) whose single kernel is split into [`KERNELS_PER_ITER`] small
/// stages of equal cost — a short multi-stage pipeline, as launch-heavy
/// workloads (graph analytics steps, fused-op chains) present per request.
pub fn launch_dense_task(scenario: &Scenario, payload_bytes: u64) -> GpuTask {
    let mut task = vecadd::scaled_task(&scenario.device, (payload_bytes / 8).max(1));
    let grid = task.kernels[0].desc.grid_blocks;
    let tpb = task.kernels[0].desc.threads_per_block;
    let per_stage = SimDuration::from_micros(4);
    task.name = "LaunchDense".into();
    task.kernels = (0..KERNELS_PER_ITER)
        .map(|i| {
            KernelTemplate::timing(
                KernelDesc::new(format!("stage{i}"), grid, tpb)
                    .regs(10)
                    .with_target_time(&scenario.device, per_stage),
            )
        })
        .collect();
    task
}

/// One payload-size measurement: per-rank flush vs coalescing flush.
pub struct CoalescePoint {
    /// Staged input payload per rank, KiB.
    pub payload_kib: f64,
    /// Process count.
    pub nprocs: usize,
    /// Post-init turnaround of one direct (unvirtualized, single process)
    /// execution — the raw-device baseline the overheads are measured
    /// against.
    pub direct_ms: f64,
    /// Mean per-rank turnaround, per-rank flush (coalescing off), ms.
    pub off_rank_ms: f64,
    /// Mean per-rank turnaround, coalescing flush, ms.
    pub on_rank_ms: f64,
    /// Fused DMA submissions the coalescing run produced.
    pub fused_dma_groups: u64,
    /// Sub-ops riding in those fused submissions.
    pub fused_dma_subs: u64,
    /// Kernel launches that went down in batched submissions.
    pub batched_launches: u64,
    /// Fraction of flush DMA ops that rode in fused submissions.
    pub fused_ratio: f64,
    /// `gv-analyze` verdict over both virtualized traces (`None` when
    /// analysis is off).
    pub clean: Option<bool>,
}

impl CoalescePoint {
    /// Mean per-request overhead of the per-rank flush (ms).
    pub fn off_overhead(&self) -> f64 {
        self.off_rank_ms - self.direct_ms
    }

    /// Mean per-request overhead of the coalescing flush (ms).
    pub fn on_overhead(&self) -> f64 {
        self.on_rank_ms - self.direct_ms
    }

    /// Overhead reduction from coalescing, as a fraction.
    pub fn improvement(&self) -> f64 {
        1.0 - self.on_overhead() / self.off_overhead()
    }
}

/// Run one payload point: the direct baseline once, then the virtualized
/// group with coalescing off and on.
pub fn run_point(base: &Scenario, payload_bytes: u64, n: usize, analyze: bool) -> CoalescePoint {
    let task = launch_dense_task(base, payload_bytes);
    let direct_ms = base.direct_post_init_ms(&task);
    let off = MemConfig::default();
    let ab = base.run_ab(&task, n, analyze, [off, off.with_coalesce(true)]);
    let og = ab.b.gvm_stats();
    CoalescePoint {
        payload_kib: payload_bytes as f64 / 1024.0,
        nprocs: n,
        direct_ms,
        off_rank_ms: ab.a.mean_rank_ms(),
        on_rank_ms: ab.b.mean_rank_ms(),
        fused_dma_groups: og.fused_dma_groups,
        fused_dma_subs: og.fused_dma_subs,
        batched_launches: og.batched_launches,
        fused_ratio: og.fused_dma_ratio(),
        clean: ab.clean,
    }
}

/// Render the machine-readable benchmark record (`BENCH_coalesce.json`).
pub fn bench_json(points: &[CoalescePoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"payload_kib\": {:.1}, \"off_overhead_ms\": {:.6}, \
                 \"on_overhead_ms\": {:.6}, \"improvement\": {:.4}, \
                 \"fused_dma_groups\": {}, \"fused_dma_subs\": {}, \
                 \"batched_launches\": {}, \"fused_ratio\": {:.4}}}",
                p.payload_kib,
                p.off_overhead(),
                p.on_overhead(),
                p.improvement(),
                p.fused_dma_groups,
                p.fused_dma_subs,
                p.batched_launches,
                p.fused_ratio,
            )
        })
        .collect();
    let nprocs = points.first().map_or(NPROCS, |p| p.nprocs);
    bench_record(
        "coalesce",
        &[("nprocs", nprocs.to_string())],
        "points",
        &rows,
        &[],
    )
}

/// Run the sweep; returns the artifact (with its `BENCH_coalesce.json`
/// record) and whether every analyzed trace was clean.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> (Artifact, bool) {
    let mut csv = String::from(
        "payload_kib,nprocs,direct_ms,off_rank_ms,on_rank_ms,off_overhead_ms,\
         on_overhead_ms,improvement,fused_dma_groups,fused_dma_subs,\
         batched_launches,fused_ratio,analyzed_clean\n",
    );
    let mut clean = true;
    let mut points = Vec::new();
    let mut t = TextTable::new(vec![
        "payload (KiB)",
        "off ovh (ms)",
        "coalesced ovh (ms)",
        "improvement",
        "fused groups/subs",
        "batched launches",
    ]);
    for &kib in &PAYLOADS_KIB {
        let payload = (kib << 10) / u64::from(scale_down.max(1));
        let p = run_point(base, payload.max(4096), NPROCS, analyze);
        clean &= p.clean.unwrap_or(true);
        t.row(vec![
            format!("{:.0}", p.payload_kib),
            ms(p.off_overhead()),
            ms(p.on_overhead()),
            pct(p.improvement()),
            format!("{} / {}", p.fused_dma_groups, p.fused_dma_subs),
            format!("{}", p.batched_launches),
        ]);
        csv.push_str(&format!(
            "{:.1},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{},{},{},{:.4},{}\n",
            p.payload_kib,
            p.nprocs,
            p.direct_ms,
            p.off_rank_ms,
            p.on_rank_ms,
            p.off_overhead(),
            p.on_overhead(),
            p.improvement(),
            p.fused_dma_groups,
            p.fused_dma_subs,
            p.batched_launches,
            p.fused_ratio,
            p.clean.map(|c| c.to_string()).unwrap_or_default(),
        ));
        points.push(p);
    }
    // The analytical side (gv-model's coalesce terms): per-flush fixed
    // submission cost saved when n sub-ops fuse to one group per
    // direction and n·K launches batch to one wave.
    let mut m = TextTable::new(vec!["n", "DMA saving (ms)", "launch saving (ms)"]);
    let l_dma = base.device.dma_latency.as_millis_f64();
    let l_launch = base.device.kernel_launch_overhead.as_millis_f64();
    for n in [2u32, 4, 8] {
        m.row(vec![
            format!("{n}"),
            ms(2.0 * coalesce_saving(n, 1, l_dma)),
            ms(coalesce_saving(n * KERNELS_PER_ITER as u32, 1, l_launch)),
        ]);
    }
    let text = format!(
        "CROSS-RANK COALESCING SWEEP (scale 1/{scale_down})\n\n\
         Mean per-request overhead over direct execution, {NPROCS} processes,\n\
         {KERNELS_PER_ITER} kernels per iteration, per-rank flush vs \
         coalescing flush:\n{}\n\
         Model prediction (gv-model coalesce_saving, per flush):\n{}\n\
         Coalescing places co-flushed ranks' staging leases adjacently,\n\
         fuses adjacent same-direction transfers into one DMA submission\n\
         per run (followers elide the setup latency), and batches the\n\
         group's kernel launches into one submission per device wave.\n",
        t.render(),
        m.render(),
    );
    let a = Artifact::new("coalesce", text, Some(csv))
        .with_file("BENCH_coalesce.json", bench_json(&points));
    (a, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_cuts_small_payload_overhead_by_a_quarter() {
        // The ISSUE's acceptance gate: ≥ 25 % lower mean per-request
        // overhead at the small-payload points.
        for &kib in &PAYLOADS_KIB[..2] {
            let p = run_point(&Scenario::default(), kib << 10, NPROCS, false);
            assert!(
                p.improvement() >= 0.25,
                "{kib} KiB: improvement {:.1} % must be ≥ 25 % \
                 (off {:.4} ms, on {:.4} ms)",
                p.improvement() * 100.0,
                p.off_overhead(),
                p.on_overhead()
            );
            assert!(p.fused_dma_groups > 0, "{kib} KiB: nothing fused");
            assert!(p.batched_launches > 0, "{kib} KiB: nothing batched");
        }
    }

    #[test]
    fn oversized_payloads_do_not_fuse() {
        // 16 MiB sits above the 4 MiB fuse threshold: transfers go down
        // per rank (launch batching still applies).
        let p = run_point(&Scenario::default(), 16 << 20, NPROCS, false);
        assert_eq!(p.fused_dma_groups, 0);
        assert!(p.batched_launches > 0);
    }

    #[test]
    fn coalesce_traces_are_analyze_clean() {
        let p = run_point(&Scenario::default(), 1 << 20, 4, true);
        assert_eq!(p.clean, Some(true));
        assert!(p.fused_dma_groups > 0);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let (a, _) = sweep(&Scenario::default(), 16, false);
        let json = &a.files[0].1;
        assert!(json.contains("\"bench\": \"coalesce\""));
        assert_eq!(json.matches("\"payload_kib\":").count(), PAYLOADS_KIB.len());
        assert!(json.contains("\"fused_dma_groups\""));
    }
}
