//! Zero-copy descriptor-passing transport sweep — `repro zerocopy`.
//!
//! Compares the staged-copy request path (the seed wire format, kept as a
//! config-selectable ablation) against the zero-copy transport — the GVM
//! exports each rank's pinned staging lease *as* its shm segment, hands
//! the client a generation-stamped descriptor at `REQ`/ACK, `SND` carries
//! only the descriptor, H2D issues straight from the lease, and `STR`
//! flush ACKs batch to one mq latency charge per flush — over payload
//! size at 8 processes.
//!
//! The headline metric is mean per-request *overhead*: the mean per-rank
//! turnaround of the virtualized run minus a single direct (unvirtualized)
//! execution of the same task, i.e. everything the transport adds on top
//! of raw device time. The acceptance gate is that zero-copy's overhead
//! is strictly below the staged ablation's at every swept payload.
//!
//! With `analyze` on, every point's trace runs the full `gv-analyze`
//! suite — including the staging checker's descriptor-currency and
//! write-after-`SND` rules.

use gv_model::request_overhead;
use gv_virt::MemConfig;

use crate::pipeline::payload_task;
use crate::report::{bench_record, ms, pct, Artifact, TextTable};
use crate::scenario::Scenario;

/// Staged input payload sizes (MiB per rank) — the ISSUE's acceptance
/// points.
pub const PAYLOADS_MIB: [u64; 3] = [1, 16, 64];

/// Process count for every swept point.
pub const NPROCS: usize = 8;

/// One payload-size measurement: staged ablation vs zero-copy transport.
pub struct ZeroCopyPoint {
    /// Staged input payload per rank, MiB.
    pub payload_mib: f64,
    /// Process count.
    pub nprocs: usize,
    /// Post-init turnaround (`end − init_done`) of one direct
    /// (unvirtualized, single process) execution — the raw-device
    /// baseline the overheads are measured against. Initialization is
    /// excluded: it is one-time, not per-request.
    pub direct_ms: f64,
    /// Mean per-rank turnaround, staged-copy ablation (ms).
    pub staged_rank_ms: f64,
    /// Mean per-rank turnaround, zero-copy transport (ms).
    pub zc_rank_ms: f64,
    /// GVM staging-copy time under the ablation (shm→pinned + pinned→shm).
    pub staged_copy_ms: f64,
    /// GVM staging-copy time under zero-copy (the dropped copies; ~0).
    pub zc_copy_ms: f64,
    /// `SND` staging copies the GVM performed under the ablation.
    pub staged_snd_copies: u64,
    /// `SND` staging copies under zero-copy (must be 0).
    pub zc_snd_copies: u64,
    /// `gv-analyze` verdict over both virtualized traces (`None` when
    /// analysis is off).
    pub clean: Option<bool>,
}

impl ZeroCopyPoint {
    /// Mean per-request overhead of the staged ablation (ms).
    pub fn staged_overhead(&self) -> f64 {
        self.staged_rank_ms - self.direct_ms
    }

    /// Mean per-request overhead of the zero-copy transport (ms).
    pub fn zc_overhead(&self) -> f64 {
        self.zc_rank_ms - self.direct_ms
    }

    /// Overhead reduction over the staged ablation, as a fraction.
    pub fn improvement(&self) -> f64 {
        1.0 - self.zc_overhead() / self.staged_overhead()
    }
}

/// Run one payload point: the direct baseline once, then the virtualized
/// group under the staged ablation and under the zero-copy transport.
pub fn run_point(base: &Scenario, payload_bytes: u64, n: usize, analyze: bool) -> ZeroCopyPoint {
    let task = payload_task(base, payload_bytes);
    let direct_ms = base.direct_post_init_ms(&task);
    let zc = MemConfig::zero_copy();
    let ab = base.run_ab(&task, n, analyze, [zc.with_zero_copy(false), zc]);
    let (sg, zg) = (ab.a.gvm_stats(), ab.b.gvm_stats());
    ZeroCopyPoint {
        payload_mib: payload_bytes as f64 / (1 << 20) as f64,
        nprocs: n,
        direct_ms,
        staged_rank_ms: ab.a.mean_rank_ms(),
        zc_rank_ms: ab.b.mean_rank_ms(),
        staged_copy_ms: sg.copy_time.as_millis_f64(),
        zc_copy_ms: zg.copy_time.as_millis_f64(),
        staged_snd_copies: sg.snd_copies,
        zc_snd_copies: zg.snd_copies,
        clean: ab.clean,
    }
}

/// Render the machine-readable benchmark record (`BENCH_zerocopy.json`).
pub fn bench_json(points: &[ZeroCopyPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"payload_mib\": {:.3}, \"staged_overhead_ms\": {:.6}, \
                 \"zerocopy_overhead_ms\": {:.6}, \"improvement\": {:.4}, \
                 \"staged_gvm_copy_ms\": {:.6}, \"zerocopy_gvm_copy_ms\": {:.6}, \
                 \"zerocopy_snd_copies\": {}}}",
                p.payload_mib,
                p.staged_overhead(),
                p.zc_overhead(),
                p.improvement(),
                p.staged_copy_ms,
                p.zc_copy_ms,
                p.zc_snd_copies,
            )
        })
        .collect();
    let nprocs = points.first().map_or(NPROCS, |p| p.nprocs);
    bench_record(
        "zerocopy",
        &[("nprocs", nprocs.to_string())],
        "points",
        &rows,
        &[],
    )
}

/// Run the sweep; returns the artifact (with its `BENCH_zerocopy.json`
/// record) and whether every analyzed trace was clean.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> (Artifact, bool) {
    let mut csv = String::from(
        "payload_mib,nprocs,direct_ms,staged_rank_ms,zc_rank_ms,\
         staged_overhead_ms,zc_overhead_ms,improvement,staged_copy_ms,\
         zc_copy_ms,staged_snd_copies,zc_snd_copies,analyzed_clean\n",
    );
    let mut clean = true;
    let mut points = Vec::new();
    let mut t = TextTable::new(vec![
        "payload (MiB)",
        "staged ovh (ms)",
        "zero-copy ovh (ms)",
        "improvement",
        "GVM copy staged/zc (ms)",
    ]);
    for &mib in &PAYLOADS_MIB {
        let payload = (mib << 20) / u64::from(scale_down.max(1));
        let p = run_point(base, payload, NPROCS, analyze);
        clean &= p.clean.unwrap_or(true);
        t.row(vec![
            format!("{:.2}", p.payload_mib),
            ms(p.staged_overhead()),
            ms(p.zc_overhead()),
            pct(p.improvement()),
            format!("{} / {}", ms(p.staged_copy_ms), ms(p.zc_copy_ms)),
        ]);
        csv.push_str(&format!(
            "{:.3},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.3},{:.3},{},{},{}\n",
            p.payload_mib,
            p.nprocs,
            p.direct_ms,
            p.staged_rank_ms,
            p.zc_rank_ms,
            p.staged_overhead(),
            p.zc_overhead(),
            p.improvement(),
            p.staged_copy_ms,
            p.zc_copy_ms,
            p.staged_snd_copies,
            p.zc_snd_copies,
            p.clean.map(|c| c.to_string()).unwrap_or_default(),
        ));
        points.push(p);
    }
    // The analytical side of the same comparison (gv-model's
    // `request_overhead` term): per-byte copy rate and mq latency are
    // arbitrary units here — the point is the *shape* of the predicted
    // gap, which the measured table must reproduce.
    let mut m = TextTable::new(vec!["payload (MiB)", "model staged", "model zero-copy"]);
    for &mib in &PAYLOADS_MIB {
        let bytes = (mib << 20) as f64;
        // VectorAdd-shaped: output is half the input payload.
        let (r, l) = (1e-6, 0.02);
        m.row(vec![
            format!("{mib}"),
            ms(request_overhead(
                bytes,
                bytes / 2.0,
                r,
                l,
                NPROCS as u32,
                false,
            )),
            ms(request_overhead(
                bytes,
                bytes / 2.0,
                r,
                l,
                NPROCS as u32,
                true,
            )),
        ]);
    }
    let text = format!(
        "ZERO-COPY TRANSPORT SWEEP (scale 1/{scale_down})\n\n\
         Mean per-request overhead over direct execution, {NPROCS} processes,\n\
         staged-copy ablation vs descriptor-passing zero-copy transport:\n{}\n\
         Model prediction (gv-model request_overhead, arbitrary units):\n{}\n\
         Zero-copy drops both GVM staging copies (shm→pinned at SND,\n\
         pinned→shm at RCV) and batches STR flush ACKs to one mq latency\n\
         charge per flush; the client's shm write IS the staging copy.\n",
        t.render(),
        m.render(),
    );
    let a = Artifact::new("zerocopy", text, Some(csv))
        .with_file("BENCH_zerocopy.json", bench_json(&points));
    (a, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_copy_overhead_strictly_below_staged_at_every_payload() {
        // The ISSUE's acceptance gate, at full payload (timing-only tasks
        // make 64 MiB free to simulate).
        for &mib in &PAYLOADS_MIB {
            let p = run_point(&Scenario::default(), mib << 20, NPROCS, false);
            assert!(
                p.zc_overhead() < p.staged_overhead(),
                "{mib} MiB: zero-copy overhead {:.4} ms must be strictly \
                 below staged {:.4} ms",
                p.zc_overhead(),
                p.staged_overhead()
            );
            assert_eq!(p.zc_snd_copies, 0, "zero-copy must not stage at SND");
            assert!(p.staged_snd_copies > 0);
            assert_eq!(p.zc_copy_ms, 0.0, "no GVM-side staging copies under zc");
        }
    }

    #[test]
    fn zero_copy_traces_are_analyze_clean() {
        let p = run_point(&Scenario::default(), 1 << 20, 4, true);
        assert_eq!(p.clean, Some(true));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let (a, _) = sweep(&Scenario::default(), 256, false);
        let json = &a.files[0].1;
        assert!(json.contains("\"bench\": \"zerocopy\""));
        assert_eq!(json.matches("\"payload_mib\":").count(), PAYLOADS_MIB.len());
        assert!(json.contains("\"zerocopy_overhead_ms\""));
    }
}
