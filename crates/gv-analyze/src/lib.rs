//! Trace-based static analysis for the GVM simulator.
//!
//! Deterministic runs produce [`AnalysisRecord`] streams (enable with
//! [`Tracer::set_analysis`]); this crate replays them through seven
//! checkers, none of which re-executes the simulation:
//!
//! * [`race`] — a vector-clock happens-before detector over shared-memory
//!   accesses: two overlapping accesses from different processes, at least
//!   one a write, with no synchronization chain between them, are a data
//!   race even if the schedule happened to order them safely.
//! * [`conformance`] — a linter replaying GVM request receipts against the
//!   REQ/SND/STR/STP/RCV/RLS protocol FSM: per-rank stage ordering,
//!   sequence-number monotonicity and retry idempotence, barrier-width
//!   consistency of joint flushes, and eviction semantics.
//! * [`device`] — device-invariant checking over GPU engine events: copy
//!   engines serve one transfer at a time, the concurrent-kernel window
//!   never exceeds the device cap, every transfer, kernel and context
//!   switch that begins also ends, and allocations balance to zero.
//! * [`staging`] — buffer-lifecycle invariants over the `gv-mem` layer's
//!   records: chunk spans tile their payload exactly once, and a pooled
//!   staging buffer is never recycled while a copy referencing it is in
//!   flight (use-after-recycle).
//! * [`coalesce`] — fused-DMA manifest invariants over the flush planner's
//!   `CoalesceOp` records: each manifest partitions its batch exactly (no
//!   overlap, no gap), member ranks are distinct, each member's engine
//!   command exists on the named device/engine, lease generations were
//!   current at submission, and no fusing crossed a quota or swap boundary.
//! * [`cluster`] — co-residency invariants over the placement front-end's
//!   `ClusterPlace`/`ClusterEvict` records: a VGPU session is resident on
//!   at most one device at a time, gangs are never split across devices,
//!   and resident demand never exceeds a device's declared capacity.
//! * [`deadlock`] — whole-trace termination checking over the engine's
//!   `DeadlockWaiter`/`Deadlock`/`NotifyLost` records: reports the wait-for
//!   cycle behind a deadlock, and upgrades a deadlocked condition wait with
//!   an earlier dropped notification on the same resource to a lost-wakeup
//!   finding.
//! * [`liveness`] — every VGPU session admitted with a `REQ` must terminate
//!   (a matching `RLS` or eviction); checked only on traces whose `RunEnd`
//!   marker shows a completed run, so partial dumps stay silent.
//! * [`quota`] — device-memory quota and demand-swap accounting over the
//!   GVM's `QuotaSet`/`QuotaCharge`/`QuotaCredit` and `SwapOut`/`SwapIn`
//!   records: charged usage never exceeds a rank's declared quota, charges
//!   and credits balance to zero on completed runs, and every swapped-out
//!   working set is either restored exactly once or retired through the
//!   staging pool at shutdown.
//!
//! [`model`] adds a line-oriented dump format so traces can be written by a
//! run (`--analyze --dump-trace` in the harness) and re-checked offline by
//! the `gv-analyze` binary. [`explore`] drives the whole suite over *many*
//! schedules of one scenario via the gv-sim scheduling oracle, shrinking any
//! failure to a minimal replayable `.gvsched` counterexample.
//!
//! [`Tracer::set_analysis`]: gv_sim::trace::Tracer::set_analysis

pub mod cluster;
pub mod coalesce;
pub mod conformance;
pub mod deadlock;
pub mod device;
pub mod explore;
pub mod liveness;
pub mod model;
pub mod quota;
pub mod race;
pub mod staging;

use gv_sim::trace::Tracer;
use gv_sim::{AnalysisRecord, SimTime};

/// One finding from a checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which checker produced it: `"race"`, `"conformance"`, `"device"`,
    /// `"staging"`, `"cluster"`, `"quota"`, `"deadlock"`, `"lost-wakeup"`,
    /// `"liveness"`.
    pub checker: &'static str,
    /// Simulated time of the offending event.
    pub time: SimTime,
    /// Human-readable description with rank/process/label detail.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={:.6}ms {}",
            self.checker,
            self.time.as_millis_f64(),
            self.message
        )
    }
}

/// The combined result of running every checker over one trace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in checker order then trace order.
    pub diagnostics: Vec<Diagnostic>,
    /// Shared-memory accesses examined by the race detector.
    pub shm_accesses: usize,
    /// Protocol receipts examined by the conformance linter.
    pub proto_messages: usize,
    /// Device engine/memory events examined by the invariant checker.
    pub device_events: usize,
    /// Staging-layer events (chunk spans, pool acquire/recycle) examined
    /// by the staging checker.
    pub staging_events: usize,
    /// Cluster placement events (device declarations, place/evict)
    /// examined by the co-residency checker.
    pub cluster_events: usize,
    /// Scheduling/termination events (deadlock waiters, dropped notifies,
    /// run-end markers) examined by the deadlock and liveness checkers.
    pub sched_events: usize,
    /// Quota/oversubscription events (quota declarations, charge/credit,
    /// swap-out/swap-in) examined by the quota checker.
    pub quota_events: usize,
    /// Fused-DMA manifests (`CoalesceOp`) examined by the coalesce checker.
    pub coalesce_events: usize,
}

impl Report {
    /// True when no checker found anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render every diagnostic, one per line (empty string when clean).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        out
    }

    /// One-line summary suitable for harness output.
    pub fn summary(&self) -> String {
        format!(
            "analyze: {} diagnostic(s) over {} shm / {} proto / {} device / {} staging / {} cluster / {} sched / {} quota / {} coalesce events",
            self.diagnostics.len(),
            self.shm_accesses,
            self.proto_messages,
            self.device_events,
            self.staging_events,
            self.cluster_events,
            self.sched_events,
            self.quota_events,
            self.coalesce_events
        )
    }
}

/// Run every checker over `records`.
pub fn analyze(records: &[AnalysisRecord]) -> Report {
    let mut report = Report::default();
    for rec in records {
        match rec {
            AnalysisRecord::ShmAccess { .. } => report.shm_accesses += 1,
            AnalysisRecord::Proto { .. }
            | AnalysisRecord::ProtoSched { .. }
            | AnalysisRecord::ProtoFlush { .. }
            | AnalysisRecord::ProtoEvict { .. } => report.proto_messages += 1,
            AnalysisRecord::DeviceRegistered { .. }
            | AnalysisRecord::CopyBegin { .. }
            | AnalysisRecord::CopyEnd { .. }
            | AnalysisRecord::KernelBegin { .. }
            | AnalysisRecord::KernelEnd { .. }
            | AnalysisRecord::Alloc { .. }
            | AnalysisRecord::Free { .. } => report.device_events += 1,
            AnalysisRecord::StageChunk { .. }
            | AnalysisRecord::StagePlan { .. }
            | AnalysisRecord::PoolAcquire { .. }
            | AnalysisRecord::PoolRecycle { .. }
            | AnalysisRecord::DescGrant { .. }
            | AnalysisRecord::DescUse { .. } => report.staging_events += 1,
            AnalysisRecord::CoalesceOp { .. } => {
                report.staging_events += 1;
                report.coalesce_events += 1;
            }
            AnalysisRecord::ClusterDevice { .. }
            | AnalysisRecord::ClusterPlace { .. }
            | AnalysisRecord::ClusterEvict { .. } => report.cluster_events += 1,
            AnalysisRecord::QuotaSet { .. }
            | AnalysisRecord::QuotaCharge { .. }
            | AnalysisRecord::QuotaCredit { .. }
            | AnalysisRecord::SwapOut { .. }
            | AnalysisRecord::SwapIn { .. } => report.quota_events += 1,
            AnalysisRecord::DeadlockWaiter { .. }
            | AnalysisRecord::Deadlock { .. }
            | AnalysisRecord::NotifyLost { .. }
            | AnalysisRecord::RunEnd { .. } => report.sched_events += 1,
            // Checked (switches) or carried for the timeline (faults), but
            // uncounted, so summaries compare with traces that predate them.
            AnalysisRecord::CtxSwitchBegin { .. }
            | AnalysisRecord::CtxSwitchEnd { .. }
            | AnalysisRecord::Fault { .. } => {}
        }
    }
    report.diagnostics.extend(race::check(records));
    report.diagnostics.extend(conformance::check(records));
    report.diagnostics.extend(device::check(records));
    report.diagnostics.extend(staging::check(records));
    report.diagnostics.extend(coalesce::check(records));
    report.diagnostics.extend(cluster::check(records));
    report.diagnostics.extend(quota::check(records));
    report.diagnostics.extend(deadlock::check(records));
    report.diagnostics.extend(liveness::check(records));
    report
}

/// Snapshot a live tracer's analysis records and run every checker.
pub fn analyze_tracer(tracer: &Tracer) -> Report {
    analyze(&tracer.analysis_snapshot())
}
