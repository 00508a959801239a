//! Chunked copy/compute pipelining sweep — `repro pipeline`.
//!
//! Compares the serial-staging GVM (chunking off, the seed behavior) with
//! the chunked+pooled pipeline over chunk count × payload size × group
//! size, all on an I/O-bound VectorAdd-shaped timing-only workload. The
//! headline configuration is the ISSUE's acceptance point: 8 processes
//! staging ≥ 16 MiB each, where interleaving shm→pinned staging with the
//! pre-issued H2D chunks keeps the copy engine busy while the GVM is still
//! staging the next rank.
//!
//! With `analyze` on, every point also records its trace and is gated on
//! the `gv-analyze` checkers — including the `staging` checker, which
//! proves each chunked transfer tiles its payload exactly and that no
//! pooled buffer is recycled while a chunk copy is still in flight.

use gv_kernels::{vecadd, GpuTask};
use gv_sim::SimDuration;
use gv_virt::sched::estimate_cost_ms;
use gv_virt::{MemConfig, SchedPolicy};

use crate::report::{bench_record, ms, pct, Artifact, TextTable};
use crate::scenario::{ExecutionMode, Scenario};

/// Chunk counts swept; 1 is the serial-staging baseline.
pub const CHUNKS: [usize; 4] = [1, 2, 4, 8];

/// Group sizes swept.
pub const PROCS: [usize; 3] = [2, 4, 8];

/// Staged input payload sizes (MiB per rank). The ISSUE's headline point
/// is the ≥ 16 MiB row.
pub const PAYLOADS_MIB: [u64; 2] = [16, 64];

/// Chunking threshold used by every swept point: low enough that even
/// `--quick`-scaled payloads split.
pub const THRESHOLD: u64 = 64 << 10;

/// Compute rounds per rank in the steady-state sweep (the ISSUE's
/// acceptance point asks for ≥ 4 iterations).
pub const STEADY_ROUNDS: u32 = 4;

/// Payload sizes (MiB per rank) for the steady-state before/after record.
pub const STEADY_PAYLOADS_MIB: [u64; 3] = [1, 16, 64];

/// One chunk-count × payload × group-size measurement.
pub struct PipelinePoint {
    /// Chunk count (1 = serial staging).
    pub chunks: usize,
    /// Staged input payload per rank, MiB.
    pub payload_mib: f64,
    /// Process count.
    pub nprocs: usize,
    /// Group turnaround (max end − min start) in ms.
    pub group_ms: f64,
    /// Mean per-rank turnaround (own end − own start) in ms.
    pub mean_rank_ms: f64,
    /// GVM staging copy time (`GvmStats::copy_time`) in ms.
    pub copy_ms: f64,
    /// Staging-pool hit rate over the run.
    pub pool_hit_rate: f64,
    /// Transfers the planner actually split.
    pub chunked_transfers: u64,
    /// Total chunk copies submitted.
    pub chunks_submitted: u64,
    /// `gv-analyze` verdict (`None` when analysis is off).
    pub clean: Option<bool>,
}

/// The workload: a VectorAdd-shaped timing-only task staging
/// `payload_bytes` of input per rank (output is half that, as in
/// VectorAdd's 2-in/1-out layout). Timing-only, so paper-sized payloads
/// cost no host RAM.
pub fn payload_task(scenario: &Scenario, payload_bytes: u64) -> GpuTask {
    vecadd::scaled_task(&scenario.device, payload_bytes / 8)
}

/// Run one point. `chunks <= 1` runs the serial-staging baseline.
pub fn run_point(
    base: &Scenario,
    chunks: usize,
    payload_bytes: u64,
    n: usize,
    analyze: bool,
) -> PipelinePoint {
    let mem = if chunks > 1 {
        MemConfig::pipelined(chunks, THRESHOLD)
    } else {
        MemConfig::default()
    };
    let scenario = Scenario {
        analyze,
        ..base.clone()
    }
    .with_mem(mem);
    let task = payload_task(&scenario, payload_bytes);
    measure(&scenario, &task, chunks, payload_bytes, n)
}

/// Run `task` on `n` virtualized ranks and record the pipeline counters.
fn measure(
    scenario: &Scenario,
    task: &GpuTask,
    chunks: usize,
    payload_bytes: u64,
    n: usize,
) -> PipelinePoint {
    let result = scenario.run_uniform(ExecutionMode::Virtualized, task, n);
    let gvm = result.gvm_stats();
    PipelinePoint {
        chunks,
        payload_mib: payload_bytes as f64 / (1 << 20) as f64,
        nprocs: n,
        group_ms: result.turnaround_ms,
        mean_rank_ms: result.mean_rank_ms(),
        copy_ms: gvm.copy_time.as_millis_f64(),
        pool_hit_rate: gvm.pool_hit_rate(),
        chunked_transfers: gvm.chunked_transfers,
        chunks_submitted: gvm.chunks_submitted,
        clean: result.analysis.as_ref().map(|r| r.is_clean()),
    }
}

/// The pool-reuse demonstration: 8 ranks × the headline payload arrive
/// far enough apart (FCFS dispatch) that each rank's round completes —
/// recycling its staging leases — before the next rank's `SND`. Every
/// rank after the first is then served from the pool's free lists.
pub fn pool_reuse_point(base: &Scenario, scale_down: u32, analyze: bool) -> PipelinePoint {
    let payload = (16 << 20) / scale_down.max(1) as u64;
    let scenario = Scenario {
        analyze,
        ..base.clone()
    }
    .with_mem(MemConfig::pipelined(4, THRESHOLD))
    .with_scheduler(SchedPolicy::Fcfs);
    let task = payload_task(&scenario, payload);
    // 1.5× the modeled single-rank service time of skew: each round is
    // fully drained (leases recycled at RCV) before the next SND arrives.
    let cost = estimate_cost_ms(&task, &scenario.device, &scenario.node);
    let scenario = scenario.with_stagger(SimDuration::from_millis_f64(cost * 1.5));
    measure(&scenario, &task, 4, payload, 8)
}

/// One steady-state before/after measurement: the same multi-round group
/// run with PR 4-style per-iteration chunking (no overlap across rounds)
/// and with iteration-overlapped adaptive pipelining.
pub struct SteadyPoint {
    /// Staged input payload per rank, MiB.
    pub payload_mib: f64,
    /// Process count.
    pub nprocs: usize,
    /// Compute rounds per rank.
    pub rounds: u32,
    /// Mean per-rank turnaround, fixed chunked pipelining only (ms).
    pub before_ms: f64,
    /// Mean per-rank turnaround, steady overlap + adaptive sizing (ms).
    pub after_ms: f64,
    /// Next-round `SND`s the GVM absorbed during the previous round.
    pub prefetches: u64,
    /// Mean adaptive chunk count over the split transfers (0 if none).
    pub mean_k: f64,
    /// `gv-analyze` verdict over both runs (`None` when analysis is off).
    pub clean: Option<bool>,
}

impl SteadyPoint {
    /// Mean-rank-turnaround improvement over the non-overlapped baseline,
    /// as a fraction.
    pub fn improvement(&self) -> f64 {
        1.0 - self.after_ms / self.before_ms
    }
}

/// Run one steady-state point: `n` ranks × `rounds` rounds at
/// `payload_bytes`, before (first-round-only pipelining: chunked
/// pre-issue on the session's first `SND` only, steady-state rounds
/// staged serially with a monolithic flush-time H2D — the pre-PR schedule
/// the ROADMAP documented) and after (adaptive chunk sizing with the same
/// cap on every round, plus steady-state double-buffered prefetch).
pub fn steady_point(
    base: &Scenario,
    payload_bytes: u64,
    n: usize,
    rounds: u32,
    analyze: bool,
) -> SteadyPoint {
    let base = base.clone().with_rounds(rounds);
    let task = payload_task(&base, payload_bytes);
    let ab = base.run_ab(
        &task,
        n,
        analyze,
        [
            MemConfig::pipelined(4, THRESHOLD).with_first_round_only(),
            MemConfig::adaptive(4, THRESHOLD).with_steady(),
        ],
    );
    let gvm = ab.b.gvm_stats();
    SteadyPoint {
        payload_mib: payload_bytes as f64 / (1 << 20) as f64,
        nprocs: n,
        rounds,
        before_ms: ab.a.mean_rank_ms(),
        after_ms: ab.b.mean_rank_ms(),
        prefetches: gvm.steady_prefetches,
        mean_k: if gvm.chunked_transfers > 0 {
            gvm.chunks_submitted as f64 / gvm.chunked_transfers as f64
        } else {
            0.0
        },
        clean: ab.clean,
    }
}

/// The steady-state sweep: 8 ranks × [`STEADY_ROUNDS`] rounds at each
/// [`STEADY_PAYLOADS_MIB`] payload.
pub fn steady_sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Vec<SteadyPoint> {
    STEADY_PAYLOADS_MIB
        .iter()
        .map(|&mib| {
            let payload = (mib << 20) / scale_down.max(1) as u64;
            steady_point(base, payload, 8, STEADY_ROUNDS, analyze)
        })
        .collect()
}

/// Render the machine-readable steady-state record
/// (`BENCH_pipeline_steady.json`): before/after mean rank turnaround per
/// payload size.
pub fn steady_bench_json(points: &[SteadyPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"payload_mib\": {:.3}, \"before_mean_rank_ms\": {:.6}, \
                 \"after_mean_rank_ms\": {:.6}, \"improvement\": {:.4}, \
                 \"steady_prefetches\": {}, \"mean_adaptive_k\": {:.3}}}",
                p.payload_mib,
                p.before_ms,
                p.after_ms,
                p.improvement(),
                p.prefetches,
                p.mean_k,
            )
        })
        .collect();
    let head = [
        ("nprocs", points.first().map_or(8, |p| p.nprocs).to_string()),
        (
            "rounds",
            points
                .first()
                .map_or(STEADY_ROUNDS, |p| p.rounds)
                .to_string(),
        ),
    ];
    bench_record("pipeline_steady", &head, "points", &rows, &[])
}

/// The headline comparison: serial vs every chunk count at 8 processes ×
/// 16 MiB (scaled), plus the best improvement fraction over serial.
pub struct Headline {
    /// Points in [`CHUNKS`] order (first is the serial baseline).
    pub points: Vec<PipelinePoint>,
    /// Best mean-rank-turnaround improvement over serial, as a fraction.
    pub best_improvement: f64,
}

/// Run the headline experiment at 8 processes × (16 MiB / `scale_down`).
pub fn headline(base: &Scenario, scale_down: u32, analyze: bool) -> Headline {
    let payload = (16 << 20) / scale_down.max(1) as u64;
    let points: Vec<PipelinePoint> = CHUNKS
        .iter()
        .map(|&k| run_point(base, k, payload, 8, analyze))
        .collect();
    let serial = points[0].mean_rank_ms;
    let best_improvement = points[1..]
        .iter()
        .map(|p| 1.0 - p.mean_rank_ms / serial)
        .fold(f64::MIN, f64::max);
    Headline {
        points,
        best_improvement,
    }
}

/// Render the machine-readable benchmark record (`BENCH_pipeline.json`)
/// from the headline points and the pool-reuse demonstration.
pub fn bench_json(hl: &Headline, reuse: Option<&PipelinePoint>) -> String {
    let rows: Vec<String> = hl
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"chunks\": {}, \"mean_rank_turnaround_ms\": {:.6}, \
                 \"group_turnaround_ms\": {:.6}, \"copy_time_ms\": {:.6}, \
                 \"pool_hit_rate\": {:.4}}}",
                p.chunks, p.mean_rank_ms, p.group_ms, p.copy_ms, p.pool_hit_rate,
            )
        })
        .collect();
    let head = [
        ("nprocs", hl.points[0].nprocs.to_string()),
        ("payload_mib", format!("{:.3}", hl.points[0].payload_mib)),
    ];
    let mut tail = vec![(
        "best_improvement_over_serial",
        format!("{:.4}", hl.best_improvement),
    )];
    if let Some(r) = reuse {
        tail.push(("staggered_pool_hit_rate", format!("{:.4}", r.pool_hit_rate)));
    }
    bench_record("pipeline", &head, "points", &rows, &tail)
}

/// Run the full matrix plus the headline and the steady-state sweep;
/// returns the artifact (with its `BENCH_pipeline.json` and
/// `BENCH_pipeline_steady.json` records) and whether every analyzed trace
/// was clean.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> (Artifact, bool) {
    let mut csv = String::from(
        "experiment,chunks,payload_mib,nprocs,group_ms,mean_rank_ms,copy_ms,\
         pool_hit_rate,chunked_transfers,chunks_submitted,analyzed_clean\n",
    );
    let mut clean = true;
    let push = |csv: &mut String, experiment: &str, p: &PipelinePoint| {
        csv.push_str(&format!(
            "{experiment},{},{:.3},{},{:.3},{:.3},{:.3},{:.4},{},{},{}\n",
            p.chunks,
            p.payload_mib,
            p.nprocs,
            p.group_ms,
            p.mean_rank_ms,
            p.copy_ms,
            p.pool_hit_rate,
            p.chunked_transfers,
            p.chunks_submitted,
            p.clean.map(|c| c.to_string()).unwrap_or_default(),
        ));
    };

    let mut text = format!("CHUNKED STAGING PIPELINE SWEEP (scale 1/{scale_down})\n\n");
    for payload_mib in PAYLOADS_MIB {
        let payload = (payload_mib << 20) / scale_down.max(1) as u64;
        for n in PROCS {
            let mut t = TextTable::new(vec![
                "chunks",
                "group (ms)",
                "mean rank (ms)",
                "copy (ms)",
                "pool hits",
                "chunked xfers",
            ]);
            for k in CHUNKS {
                let p = run_point(base, k, payload, n, analyze);
                clean &= p.clean.unwrap_or(true);
                t.row(vec![
                    if p.chunks > 1 {
                        p.chunks.to_string()
                    } else {
                        "serial".to_string()
                    },
                    ms(p.group_ms),
                    ms(p.mean_rank_ms),
                    ms(p.copy_ms),
                    pct(p.pool_hit_rate),
                    p.chunked_transfers.to_string(),
                ]);
                push(&mut csv, "matrix", &p);
            }
            text.push_str(&format!(
                "{payload_mib} MiB payload × {n} processes:\n{}\n",
                t.render()
            ));
        }
    }

    let hl = headline(base, scale_down, analyze);
    let mut t = TextTable::new(vec!["chunks", "mean rank (ms)", "vs serial", "pool hits"]);
    let serial = hl.points[0].mean_rank_ms;
    for p in &hl.points {
        clean &= p.clean.unwrap_or(true);
        t.row(vec![
            if p.chunks > 1 {
                p.chunks.to_string()
            } else {
                "serial".to_string()
            },
            ms(p.mean_rank_ms),
            pct(1.0 - p.mean_rank_ms / serial),
            pct(p.pool_hit_rate),
        ]);
        push(&mut csv, "headline", p);
    }
    text.push_str(&format!(
        "HEADLINE — 8 processes × {:.0} MiB staged input each:\n{}\n\
         Best chunked improvement over serial staging (mean rank turnaround): {:.1}%\n\n",
        hl.points[0].payload_mib,
        t.render(),
        hl.best_improvement * 100.0
    ));

    let reuse = pool_reuse_point(base, scale_down, analyze);
    clean &= reuse.clean.unwrap_or(true);
    push(&mut csv, "staggered-reuse", &reuse);
    text.push_str(&format!(
        "POOL REUSE — 8 staggered FCFS rounds × {:.0} MiB, 4 chunks:\n\
         staging-pool hit rate {} (every rank after the first is served\n\
         from recycled pinned buffers)\n",
        reuse.payload_mib,
        pct(reuse.pool_hit_rate),
    ));

    let steady = steady_sweep(base, scale_down, analyze);
    let mut t = TextTable::new(vec![
        "payload (MiB)",
        "before (ms)",
        "after (ms)",
        "improvement",
        "prefetches",
        "mean k",
    ]);
    for p in &steady {
        clean &= p.clean.unwrap_or(true);
        t.row(vec![
            format!("{:.2}", p.payload_mib),
            ms(p.before_ms),
            ms(p.after_ms),
            pct(p.improvement()),
            p.prefetches.to_string(),
            format!("{:.2}", p.mean_k),
        ]);
        let flag = p.clean.map(|c| c.to_string()).unwrap_or_default();
        csv.push_str(&format!(
            "steady-before,4,{:.3},{},,{:.3},,,,,{flag}\n",
            p.payload_mib, p.nprocs, p.before_ms
        ));
        csv.push_str(&format!(
            "steady-after,4,{:.3},{},,{:.3},,,,,{flag}\n",
            p.payload_mib, p.nprocs, p.after_ms
        ));
    }
    text.push_str(&format!(
        "\nSTEADY STATE — 8 processes × {STEADY_ROUNDS} rounds, \
         iteration-overlapped adaptive pipelining vs per-iteration chunking:\n{}\n",
        t.render()
    ));

    let a = Artifact::new("pipeline", text, Some(csv))
        .with_file("BENCH_pipeline.json", bench_json(&hl, Some(&reuse)))
        .with_file("BENCH_pipeline_steady.json", steady_bench_json(&steady));
    (a, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_beats_serial_at_n8_16mib() {
        // The ISSUE's acceptance point, at full payload (timing-only tasks
        // make 16 MiB free to simulate).
        let hl = headline(&Scenario::default(), 1, false);
        assert!(
            hl.best_improvement > 0.0,
            "chunked+pooled must beat serial staging at 8×16 MiB, got {:.4}",
            hl.best_improvement
        );
    }

    #[test]
    fn staggered_rounds_hit_the_staging_pool() {
        // Lockstep single-round groups can't reuse (every rank acquires
        // before any recycles); staggered FCFS rounds must.
        let p = pool_reuse_point(&Scenario::default(), 16, false);
        assert!(
            p.pool_hit_rate > 0.5,
            "staggered rounds should mostly hit the pool, got {:.3}",
            p.pool_hit_rate
        );
    }

    #[test]
    fn chunked_traces_are_analyze_clean() {
        let p = run_point(&Scenario::default(), 4, 1 << 20, 2, true);
        assert_eq!(p.clean, Some(true));
        assert!(
            p.chunked_transfers > 0,
            "payload above threshold must chunk"
        );
        assert_eq!(p.chunks_submitted, p.chunked_transfers * 4);
    }

    #[test]
    fn steady_overlap_beats_per_iteration_pipelining() {
        // The ISSUE's steady-state acceptance point: 8 processes ×
        // 4 rounds × 16 MiB, ≥ 15% mean-rank-turnaround improvement over
        // PR 4's non-overlapped chunked schedule.
        let p = steady_point(&Scenario::default(), 16 << 20, 8, STEADY_ROUNDS, false);
        assert!(
            p.improvement() >= 0.15,
            "steady overlap must improve ≥ 15% at 8×16 MiB×{} rounds, got {:.4}",
            STEADY_ROUNDS,
            p.improvement()
        );
        assert!(
            p.prefetches > 0,
            "steady runs must absorb next-round SNDs early"
        );
    }

    #[test]
    fn steady_traces_are_analyze_clean() {
        // Smoke-scaled, both runs under the full checker suite (staging
        // tiling under adaptive k included).
        let p = steady_point(&Scenario::default(), 1 << 20, 4, 3, true);
        assert_eq!(p.clean, Some(true));
        assert!(p.prefetches > 0);
    }

    #[test]
    fn steady_bench_json_is_well_formed() {
        let pts = steady_sweep(&Scenario::default(), 256, false);
        let j = steady_bench_json(&pts);
        assert!(j.contains("\"bench\": \"pipeline_steady\""));
        assert_eq!(
            j.matches("\"payload_mib\":").count(),
            STEADY_PAYLOADS_MIB.len()
        );
        assert!(j.contains("\"before_mean_rank_ms\""));
        assert!(j.contains("\"after_mean_rank_ms\""));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let hl = headline(&Scenario::default(), 256, false);
        let j = bench_json(&hl, None);
        assert!(j.contains("\"bench\": \"pipeline\""));
        assert!(j.contains("\"pool_hit_rate\""));
        assert_eq!(j.matches("\"chunks\":").count(), CHUNKS.len());
    }
}
