//! Fault-tolerant buffer-lifecycle measurements — `repro ft`.
//!
//! The fault-tolerant GVM allocates device memory lazily at `SND`, parks
//! allocations in the [`DeviceAllocCache`](gv_mem::DeviceAllocCache) when
//! a rank is evicted or releases with an idle stream, and re-issues them
//! to later admissions of the same shape. These scenarios measure that
//! cache instead of just unit-testing it: a lockstep group (every rank
//! allocates before anyone releases — all misses), a staggered FCFS wave
//! (each rank inherits its predecessor's parked allocation), and the same
//! wave with a crashed rank whose eviction routes its allocation through
//! the cache.

use gv_sim::SimDuration;
use gv_virt::sched::estimate_cost_ms;
use gv_virt::{FaultPlan, FaultSpec, GvmConfig, RequestKind, SchedPolicy};

use crate::pipeline::payload_task;
use crate::report::{bench_record, ms, pct, Artifact, TextTable};
use crate::scenario::Scenario;

/// One fault-tolerant scenario's measurements.
pub struct FtPoint {
    /// Scenario label.
    pub name: &'static str,
    /// Process count.
    pub nprocs: usize,
    /// Group turnaround (max end − min start over completed ranks), ms.
    pub group_ms: f64,
    /// Device-allocation cache hits (allocations served without
    /// `cudaMalloc`).
    pub devcache_hits: u64,
    /// Device-allocation cache misses (real allocator calls).
    pub devcache_misses: u64,
    /// Ranks evicted by the fault-tolerance layer.
    pub evictions: u64,
    /// NAK responses sent.
    pub naks: u64,
}

impl FtPoint {
    /// Fraction of device allocations served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.devcache_hits + self.devcache_misses;
        if total == 0 {
            0.0
        } else {
            self.devcache_hits as f64 / total as f64
        }
    }
}

/// Run one fault-tolerant group: `n` ranks of the pipeline payload task,
/// arrivals `stagger` apart, under `plan`. Ranks scripted to abort walk
/// away mid-protocol; everyone else runs to completion.
fn run_ft(
    base: &Scenario,
    name: &'static str,
    payload_bytes: u64,
    n: usize,
    scheduler: SchedPolicy,
    stagger: SimDuration,
    plan: &FaultPlan,
) -> FtPoint {
    let config = GvmConfig::fault_tolerant(n)
        .with_scheduler(scheduler)
        .with_mem(base.mem);
    let task = payload_task(base, payload_bytes);
    let w = base
        .clone()
        .with_stagger(stagger)
        .run_wave(config, vec![task; n], plan);
    FtPoint {
        name,
        nprocs: n,
        group_ms: w.group_ms,
        devcache_hits: w.stats.devcache_hits,
        devcache_misses: w.stats.devcache_misses,
        evictions: w.stats.evictions,
        naks: w.stats.naks,
    }
}

/// Run the three scenarios at `16 MiB / scale_down` payloads.
pub fn scenarios(base: &Scenario, scale_down: u32) -> Vec<FtPoint> {
    let payload = (16 << 20) / scale_down.max(1) as u64;
    let n = 8;
    let task = payload_task(base, payload);
    let cost = estimate_cost_ms(&task, &base.device, &base.node);
    // 2× the modeled single-rank service time: each rank's session fully
    // drains (allocation parked at RLS) before the next rank's SND. The
    // fault-free estimate undershoots the fault-tolerant round (device
    // allocation happens lazily at SND), hence the margin.
    let stagger = SimDuration::from_millis_f64(cost * 2.0);
    vec![
        // Lockstep joint flush: every rank allocates before anyone
        // releases, so the cache cannot help — the all-miss baseline.
        run_ft(
            base,
            "lockstep-joint",
            payload,
            n,
            SchedPolicy::JointFlush,
            SimDuration::ZERO,
            &FaultPlan::new(0),
        ),
        // Staggered FCFS wave: rank i's SND arrives after rank i−1's RLS
        // parked its allocation; every rank after the first reuses it.
        run_ft(
            base,
            "staggered-fcfs",
            payload,
            n,
            SchedPolicy::Fcfs,
            stagger,
            &FaultPlan::new(0),
        ),
        // The same wave with rank 0 crashing after its flush: the idle
        // eviction routes its allocation through the cache too, and the
        // survivors still inherit their predecessors' buffers.
        run_ft(
            base,
            "staggered-abort",
            payload,
            n,
            SchedPolicy::Fcfs,
            stagger,
            &FaultPlan::new(0).push(FaultSpec::ClientAbort {
                rank: 0,
                stage: RequestKind::Stp,
            }),
        ),
    ]
}

/// Render the text + CSV artifact, with its `BENCH_ft.json` record, from
/// the scenario points.
pub fn artifact(points: &[FtPoint], scale_down: u32) -> Artifact {
    let mut t = TextTable::new(vec![
        "scenario",
        "procs",
        "group (ms)",
        "cache hits",
        "cache misses",
        "hit rate",
        "evictions",
        "naks",
    ]);
    let mut csv = String::from(
        "scenario,nprocs,group_ms,devcache_hits,devcache_misses,hit_rate,evictions,naks\n",
    );
    for p in points {
        t.row(vec![
            p.name.to_string(),
            p.nprocs.to_string(),
            ms(p.group_ms),
            p.devcache_hits.to_string(),
            p.devcache_misses.to_string(),
            pct(p.hit_rate()),
            p.evictions.to_string(),
            p.naks.to_string(),
        ]);
        csv.push_str(&format!(
            "{},{},{:.3},{},{},{:.4},{},{}\n",
            p.name,
            p.nprocs,
            p.group_ms,
            p.devcache_hits,
            p.devcache_misses,
            p.hit_rate(),
            p.evictions,
            p.naks,
        ));
    }
    let text = format!(
        "FAULT-TOLERANT BUFFER LIFECYCLE — DEVICE-ALLOCATION CACHE \
         (scale 1/{scale_down})\n\n{}\n\
         Lockstep groups allocate all at once (all misses); staggered\n\
         waves inherit parked allocations from released and evicted\n\
         ranks instead of paying cudaMalloc again.\n",
        t.render()
    );
    Artifact::new("ft", text, Some(csv)).with_file("BENCH_ft.json", bench_json(points))
}

/// Render the machine-readable record (`BENCH_ft.json`).
pub fn bench_json(points: &[FtPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"scenario\": \"{}\", \"nprocs\": {}, \"group_ms\": {:.6}, \
             \"devcache_hits\": {}, \"devcache_misses\": {}, \"hit_rate\": {:.4}, \
             \"evictions\": {}, \"naks\": {}}}",
                p.name,
                p.nprocs,
                p.group_ms,
                p.devcache_hits,
                p.devcache_misses,
                p.hit_rate(),
                p.evictions,
                p.naks,
            )
        })
        .collect();
    bench_record("ft_devcache", &[], "points", &rows, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_misses_staggered_hits() {
        let pts = scenarios(&Scenario::default(), 16);
        let lockstep = &pts[0];
        let staggered = &pts[1];
        assert_eq!(lockstep.devcache_hits, 0, "lockstep cannot reuse");
        assert_eq!(lockstep.devcache_misses as usize, lockstep.nprocs);
        assert!(
            staggered.devcache_hits as usize >= staggered.nprocs - 1,
            "every rank after the first inherits a parked allocation, got {} hits",
            staggered.devcache_hits
        );
    }

    #[test]
    fn aborted_rank_is_evicted_and_survivors_reuse() {
        let pts = scenarios(&Scenario::default(), 16);
        let abort = &pts[2];
        assert_eq!(abort.evictions, 1, "exactly the crashed rank is evicted");
        assert!(
            abort.devcache_hits > 0,
            "survivors still reuse parked allocations"
        );
    }

    #[test]
    fn ft_artifacts_are_well_formed() {
        let pts = scenarios(&Scenario::default(), 64);
        let a = artifact(&pts, 64);
        assert_eq!(a.csv.unwrap().lines().count(), 1 + pts.len());
        let j = bench_json(&pts);
        assert!(j.contains("\"bench\": \"ft_devcache\""));
        assert_eq!(j.matches("\"scenario\":").count(), pts.len());
    }
}
