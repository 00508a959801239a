//! Device-memory quota and VRAM-oversubscription measurements —
//! `repro quota`.
//!
//! Each point runs the same staggered FCFS wave of 8 quota'd sessions
//! twice against a deliberately small device: once **hard-fit** (finite
//! quotas, demand-swap off — a session whose working set does not fit in
//! free VRAM is NAKed away) and once **oversubscribed** (demand-swap on —
//! the GVM evicts idle parked working sets to pinned host staging and
//! restores them on the next touch). Sweeping the aggregate demand from
//! 1× to 8× of device capacity shows the trade: hard-fit admission decays
//! toward one session while swap keeps admitting all eight, at the cost
//! of the swap traffic the model's `swap_cost` equation prices.
//!
//! Every rank's working set has a *distinct* byte size, so the
//! device-allocation cache can never serve a later session from an
//! exact-shape parked buffer and mask the hard-fit ceiling.

use gv_gpu::DeviceConfig;
use gv_kernels::vecadd;
use gv_sim::SimDuration;
use gv_virt::sched::estimate_cost_ms;
use gv_virt::{FaultPlan, GvmConfig, MemQuota, SchedPolicy};

use crate::report::{bench_record, ms, x, Artifact, TextTable};
use crate::scenario::{Scenario, Wave};

/// Sessions per wave.
const NPROCS: usize = 8;

/// One oversubscription ratio, measured hard-fit and swap-backed.
pub struct QuotaPoint {
    /// Aggregate demand as a multiple of device capacity.
    pub ratio: u32,
    /// Process count (sessions requested).
    pub nprocs: usize,
    /// Sessions that ran to completion without demand-swap.
    pub admitted_hard: usize,
    /// Sessions that ran to completion with demand-swap.
    pub admitted_swap: usize,
    /// NAKs sent in the hard-fit run.
    pub naks_hard: u64,
    /// Working sets demand-swapped out to host staging (swap run).
    pub swap_outs: u64,
    /// Working sets restored from host staging (swap run).
    pub swap_ins: u64,
    /// Bytes moved device→host by demand-swap (swap run).
    pub swapped_out_bytes: u64,
    /// Group turnaround of the hard-fit run, ms.
    pub group_ms_hard: f64,
    /// Group turnaround of the swap run, ms.
    pub group_ms_swap: f64,
    /// `gv-analyze` verdict on the hard-fit trace (`None`: analysis off).
    pub clean_hard: Option<bool>,
    /// `gv-analyze` verdict on the swap trace (`None`: analysis off).
    pub clean_swap: Option<bool>,
}

impl QuotaPoint {
    /// Admission gain of oversubscription over hard-fit.
    pub fn admit_gain(&self) -> f64 {
        if self.admitted_hard == 0 {
            self.admitted_swap as f64
        } else {
            self.admitted_swap as f64 / self.admitted_hard as f64
        }
    }
}

/// The small device the sweep overcommits: the base device with its VRAM
/// shrunk to `64 MiB / scale_down`, so paper-sized cost parameters apply
/// but capacity is something eight sessions can actually strain.
fn quota_device(base: &Scenario, scale_down: u32) -> DeviceConfig {
    DeviceConfig {
        global_mem_bytes: (64 << 20) / u64::from(scale_down.max(1)),
        ..base.device.clone()
    }
}

/// Per-rank working sets at `ratio`× aggregate overcommit: each of the 8
/// ranks demands `ratio/8` of device capacity, minus a distinct per-rank
/// offset so no two sessions share a buffer shape (element counts, so the
/// VectorAdd task's `12·n` device bytes stay exact).
fn working_set_elems(capacity: u64, ratio: u32) -> Vec<u64> {
    let step = (capacity / 256).max(24) / 12; // distinct-shape offset, elems
    let base = u64::from(ratio) * capacity / NPROCS as u64 / 12;
    (0..NPROCS as u64).map(|i| base - i * step).collect()
}

/// Run one wave: 8 staggered FCFS sessions with per-session quotas equal
/// to their working sets, demand-swap on or off. Returns how many
/// sessions the GVM actually served.
fn run_wave(
    base: &Scenario,
    device_cfg: &DeviceConfig,
    elems: &[u64],
    swap: bool,
    analyze: bool,
) -> Wave {
    let tasks: Vec<_> = elems
        .iter()
        .map(|&n| vecadd::scaled_task(device_cfg, n))
        .collect();
    let quotas: Vec<MemQuota> = tasks
        .iter()
        .map(|t| MemQuota::Bytes(t.device_bytes))
        .collect();
    // Stagger like the ft wave: each session fully drains (working set
    // parked at RLS) before the next session's SND arrives, so hard-fit
    // admission is limited by *accumulated parked* memory, not by racing
    // live sessions.
    let cost = tasks
        .iter()
        .map(|t| estimate_cost_ms(t, device_cfg, &base.node))
        .fold(0.0, f64::max);
    let stagger = SimDuration::from_millis_f64(cost * 2.0);

    let mut config = GvmConfig::new(tasks.len())
        .with_scheduler(SchedPolicy::Fcfs)
        .with_mem(base.mem)
        .with_quotas(quotas);
    if swap {
        config = config.with_swap();
    }
    let scenario = Scenario {
        device: device_cfg.clone(),
        analyze,
        ..base.clone()
    };
    scenario
        .with_stagger(stagger)
        .run_wave(config, tasks, &FaultPlan::default())
}

/// Sweep aggregate demand over 1×, 2×, 4×, and 8× of device capacity.
/// With `analyze`, every wave's trace is checked by the full `gv-analyze`
/// suite (including the quota/swap checker); the returned flag is `false`
/// if any trace had diagnostics.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> (Vec<QuotaPoint>, bool) {
    let device_cfg = quota_device(base, scale_down);
    let capacity = device_cfg.global_mem_bytes;
    let mut clean = true;
    let points = [1u32, 2, 4, 8]
        .into_iter()
        .map(|ratio| {
            let elems = working_set_elems(capacity, ratio);
            let hard = run_wave(base, &device_cfg, &elems, false, analyze);
            let swap = run_wave(base, &device_cfg, &elems, true, analyze);
            clean &= hard.clean.unwrap_or(true) && swap.clean.unwrap_or(true);
            QuotaPoint {
                ratio,
                nprocs: NPROCS,
                admitted_hard: hard.admitted,
                admitted_swap: swap.admitted,
                naks_hard: hard.stats.naks,
                swap_outs: swap.stats.swap_outs,
                swap_ins: swap.stats.swap_ins,
                swapped_out_bytes: swap.stats.swapped_out_bytes,
                group_ms_hard: hard.group_ms,
                group_ms_swap: swap.group_ms,
                clean_hard: hard.clean,
                clean_swap: swap.clean,
            }
        })
        .collect();
    (points, clean)
}

/// Render the text + CSV artifact, with its `BENCH_quota.json` record,
/// from the sweep points.
pub fn artifact(points: &[QuotaPoint], scale_down: u32) -> Artifact {
    let mut t = TextTable::new(vec![
        "demand",
        "procs",
        "admitted (hard-fit)",
        "admitted (swap)",
        "gain",
        "naks",
        "swap outs",
        "swap ins",
        "swapped (MiB)",
        "hard-fit (ms)",
        "swap (ms)",
    ]);
    let mut csv = String::from(
        "ratio,nprocs,admitted_hard,admitted_swap,admit_gain,naks_hard,\
         swap_outs,swap_ins,swapped_out_bytes,group_ms_hard,group_ms_swap\n",
    );
    for p in points {
        t.row(vec![
            format!("{}x", p.ratio),
            p.nprocs.to_string(),
            p.admitted_hard.to_string(),
            p.admitted_swap.to_string(),
            x(p.admit_gain()),
            p.naks_hard.to_string(),
            p.swap_outs.to_string(),
            p.swap_ins.to_string(),
            format!("{:.1}", p.swapped_out_bytes as f64 / (1 << 20) as f64),
            ms(p.group_ms_hard),
            ms(p.group_ms_swap),
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{:.3},{},{},{},{},{:.3},{:.3}\n",
            p.ratio,
            p.nprocs,
            p.admitted_hard,
            p.admitted_swap,
            p.admit_gain(),
            p.naks_hard,
            p.swap_outs,
            p.swap_ins,
            p.swapped_out_bytes,
            p.group_ms_hard,
            p.group_ms_swap,
        ));
    }
    let best = points
        .iter()
        .map(QuotaPoint::admit_gain)
        .fold(0.0, f64::max);
    let text = format!(
        "DEVICE-MEMORY QUOTAS AND VRAM OVERSUBSCRIPTION — DEMAND-SWAP \
         (scale 1/{scale_down})\n\n{}\n\
         Aggregate demand sweeps 1x-8x of device VRAM. Hard-fit NAKs any\n\
         session whose quota'd working set cannot be placed; demand-swap\n\
         parks idle working sets in pinned host staging instead, admitting\n\
         up to {:.1}x more sessions at the cost of the swap traffic above.\n",
        t.render(),
        best,
    );
    Artifact::new("quota", text, Some(csv)).with_file("BENCH_quota.json", bench_json(points))
}

/// Render the machine-readable record (`BENCH_quota.json`).
pub fn bench_json(points: &[QuotaPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"ratio\": {}, \"nprocs\": {}, \"admitted_hard\": {}, \
             \"admitted_swap\": {}, \"admit_gain\": {:.3}, \"naks_hard\": {}, \
             \"swap_outs\": {}, \"swap_ins\": {}, \"swapped_out_bytes\": {}, \
             \"group_ms_hard\": {:.6}, \"group_ms_swap\": {:.6}}}",
                p.ratio,
                p.nprocs,
                p.admitted_hard,
                p.admitted_swap,
                p.admit_gain(),
                p.naks_hard,
                p.swap_outs,
                p.swap_ins,
                p.swapped_out_bytes,
                p.group_ms_hard,
                p.group_ms_swap,
            )
        })
        .collect();
    bench_record("quota_oversubscription", &[], "points", &rows, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_admits_4x_more_than_hard_fit() {
        let (pts, _) = sweep(&Scenario::default(), 16, false);
        for p in &pts {
            assert_eq!(
                p.admitted_swap, p.nprocs,
                "demand-swap must admit every session at {}x",
                p.ratio
            );
        }
        // Hard-fit admission decays as demand grows past capacity…
        let hard: Vec<usize> = pts.iter().map(|p| p.admitted_hard).collect();
        assert_eq!(hard[0], NPROCS, "everything fits at 1x");
        assert!(
            hard.windows(2).all(|w| w[1] <= w[0]),
            "hard-fit admission must be monotone in demand: {hard:?}"
        );
        // …and the acceptance headline: ≥4× more sessions admitted under
        // oversubscription than hard-fit.
        let best = pts.iter().map(QuotaPoint::admit_gain).fold(0.0, f64::max);
        assert!(best >= 4.0, "admission gain only {best:.2}x: {hard:?}");
    }

    #[test]
    fn swap_traffic_appears_exactly_when_overcommitted() {
        let (pts, clean) = sweep(&Scenario::default(), 32, true);
        assert!(clean, "every swept trace must analyze clean");
        for p in &pts {
            assert_eq!(p.clean_hard, Some(true));
            assert_eq!(p.clean_swap, Some(true));
            if p.ratio == 1 {
                assert_eq!(p.swap_outs, 0, "nothing to swap when everything fits");
                assert_eq!(p.naks_hard, 0);
            } else {
                assert!(
                    p.swap_outs > 0,
                    "{}x overcommit must demand-swap at least once",
                    p.ratio
                );
                assert!(p.naks_hard > 0, "hard-fit must reject at {}x", p.ratio);
            }
        }
    }

    #[test]
    fn quota_artifacts_are_well_formed() {
        let (pts, _) = sweep(&Scenario::default(), 64, false);
        let a = artifact(&pts, 64);
        assert_eq!(a.csv.unwrap().lines().count(), 1 + pts.len());
        let j = bench_json(&pts);
        assert!(j.contains("\"bench\": \"quota_oversubscription\""));
        assert_eq!(j.matches("\"ratio\":").count(), pts.len());
    }
}
