//! Trace recording: one stream of [`AnalysisRecord`]s.
//!
//! A [`Tracer`] collects the records every instrumented layer emits —
//! shared-memory accesses, protocol receipts, device engine spans, staging
//! and placement events, injected faults. `gv-analyze` checks the stream;
//! the harness derives engine timelines and Chrome traces from it; the
//! fault-injection tests read its [`AnalysisRecord::Fault`] markers.
//!
//! Recording is off by default. While off, an emitter costs one relaxed
//! atomic load and builds nothing; while on, each record costs one mutex
//! acquisition plus its own fields.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::kernel::{Pid, WaitKind};
use crate::time::SimTime;

/// A happens-before/protocol/device record emitted by the instrumented
/// layers while [analysis recording](Tracer::set_analysis) is on. These are
/// deliberately label-based (no protocol types) so `gv-sim` stays agnostic
/// of the layers above it; `gv-analyze` interprets them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisRecord {
    /// One shared-memory access (read or write) with its captured clock.
    ShmAccess {
        /// Simulated timestamp of the access.
        time: SimTime,
        /// Accessing process.
        pid: Pid,
        /// Accessing process name (e.g. `"spmd-3"`, `"gvm"`).
        process: String,
        /// Segment name (e.g. `"/gvm-shm-2"`).
        segment: String,
        /// Byte offset of the access within the segment.
        offset: usize,
        /// Byte length of the access.
        len: usize,
        /// `true` for writes (and fills), `false` for reads.
        is_write: bool,
        /// The accessor's vector clock, ticked for this access.
        clock: VClock,
    },
    /// The GVM announced its scheduling policy at boot. Consumers (the
    /// conformance linter) use it to pick the flush-width rule: joint
    /// policies must flush exactly the barriered set, partial policies may
    /// flush any non-empty subset of it.
    ProtoSched {
        /// Simulated timestamp of the announcement (GVM boot).
        time: SimTime,
        /// GVM instance name: scopes the announcement when several GVMs
        /// (cluster placement) share one trace.
        gvm: String,
        /// Policy label: `joint`/`fcfs`/`adaptive`/`sjf`.
        policy: String,
        /// `true` when a flush may cover a strict subset of the barriered
        /// ranks.
        partial: bool,
    },
    /// A GVM request receipt (one protocol message observed server-side).
    Proto {
        /// Simulated timestamp of the receipt.
        time: SimTime,
        /// GVM instance name that received the request. Ranks are local to
        /// their GVM, so multi-GVM traces need this to keep per-rank
        /// protocol state separate.
        gvm: String,
        /// SPMD rank the request came from.
        rank: usize,
        /// Request kind label: `REQ`/`SND`/`STR`/`STP`/`RCV`/`RLS`.
        kind: &'static str,
        /// Client sequence number (0 = legacy unsequenced client).
        seq: u64,
    },
    /// A joint stream flush released the `STR` barrier for `ranks`.
    ProtoFlush {
        /// Simulated timestamp of the flush.
        time: SimTime,
        /// GVM instance name whose barrier flushed.
        gvm: String,
        /// Ranks whose barriered `STR` requests were acknowledged.
        ranks: Vec<usize>,
    },
    /// A rank was evicted from the GVM (fault tolerance).
    ProtoEvict {
        /// Simulated timestamp of the eviction.
        time: SimTime,
        /// GVM instance name that evicted the rank.
        gvm: String,
        /// The evicted rank.
        rank: usize,
    },
    /// A GPU device registered itself and its invariant parameters.
    DeviceRegistered {
        /// Dense per-tracer device ordinal (see [`Tracer::register_device`]).
        device: u32,
        /// The device's concurrent-kernel cap.
        max_concurrent_kernels: u32,
    },
    /// A DMA transfer started on a copy engine.
    CopyBegin {
        /// Simulated start time.
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// Engine index: 0 = H2D engine, 1 = dedicated D2H engine.
        engine: u8,
        /// Stream the command was issued on.
        stream: u32,
        /// Command label (e.g. `"cmd-7"`).
        label: String,
    },
    /// A DMA transfer completed on a copy engine.
    CopyEnd {
        /// Simulated completion time.
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// Engine index: 0 = H2D engine, 1 = dedicated D2H engine.
        engine: u8,
        /// Command label (e.g. `"cmd-7"`).
        label: String,
    },
    /// A kernel began executing on the SMs.
    KernelBegin {
        /// Simulated start time.
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// Stream the kernel was launched on.
        stream: u32,
        /// Kernel label (e.g. `"vecadd-3"`).
        label: String,
    },
    /// A kernel finished executing.
    KernelEnd {
        /// Simulated completion time.
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// Kernel label (e.g. `"vecadd-3"`).
        label: String,
    },
    /// The device began switching to another context.
    CtxSwitchBegin {
        /// Simulated start time.
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// The context being switched to.
        ctx: u32,
    },
    /// A context switch completed; `ctx` is now the device's context.
    CtxSwitchEnd {
        /// Simulated completion time.
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// The context switched to.
        ctx: u32,
    },
    /// A device allocation succeeded.
    Alloc {
        /// Simulated timestamp (engine clock hint).
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// Allocation id (unique per device for the run).
        id: u64,
        /// Requested size in bytes.
        bytes: u64,
    },
    /// A device allocation was freed.
    Free {
        /// Simulated timestamp (engine clock hint).
        time: SimTime,
        /// Device ordinal.
        device: u32,
        /// Allocation id being released.
        id: u64,
    },
    /// One span of a staged transfer was processed by the buffer-lifecycle
    /// layer (whole payloads are a single span; chunked transfers emit one
    /// record per chunk). Layer-agnostic: spans are correlated to engine
    /// copies by `label` and to pool buffers by `buf`.
    StageChunk {
        /// Simulated timestamp the span finished staging.
        time: SimTime,
        /// Tracer ordinal of the device the transfer targets. Engine
        /// command labels are per-device counters, so the staging checker
        /// needs this to pair `label` with its [`AnalysisRecord::CopyEnd`].
        device: u32,
        /// SPMD rank the transfer belongs to.
        rank: usize,
        /// Transfer-group id: all spans of one payload share it and must
        /// tile `[0, payload)` exactly once.
        xfer: u64,
        /// `true` for input staging (shm → pinned → device), `false` for
        /// output staging (device → pinned → shm).
        h2d: bool,
        /// Byte offset of this span within the payload.
        offset: u64,
        /// Span length in bytes.
        len: u64,
        /// Total payload size the group tiles.
        payload: u64,
        /// Pool buffer id backing the span (0 = not pool-managed).
        buf: u64,
        /// Engine command label (`"cmd-N"`) when an async copy was issued
        /// for this span; empty when the span was staged without one.
        label: String,
    },
    /// The transfer planner committed to a chunk count for one payload
    /// before emitting that transfer's [`AnalysisRecord::StageChunk`]
    /// spans. The staging checker cross-validates the plan against the
    /// spans actually staged, so adaptive chunk sizing stays auditable.
    StagePlan {
        /// Simulated timestamp the plan was made.
        time: SimTime,
        /// SPMD rank the transfer belongs to.
        rank: usize,
        /// Transfer-group id the plan governs (matches the spans' `xfer`).
        xfer: u64,
        /// Total payload size the plan tiles.
        payload: u64,
        /// Chosen chunk count: the transfer must emit exactly `k` spans.
        k: u32,
        /// Configured chunk cap in force when the choice was made.
        cap: u32,
        /// `true` when the model-driven adaptive chooser picked `k`,
        /// `false` for a fixed `PipelineConfig::chunks` plan.
        adaptive: bool,
    },
    /// A pinned staging buffer was acquired from the pool.
    PoolAcquire {
        /// Simulated timestamp of the acquire.
        time: SimTime,
        /// Pool buffer id (unique per tracer for the run).
        buf: u64,
        /// Size-class capacity of the buffer in bytes.
        bytes: u64,
        /// `true` when the buffer was recycled from a free list rather
        /// than freshly allocated.
        hit: bool,
    },
    /// A pinned staging buffer was returned to the pool's free list. Must
    /// never happen while a copy referencing the buffer is in flight.
    PoolRecycle {
        /// Simulated timestamp of the recycle.
        time: SimTime,
        /// Pool buffer id being recycled.
        buf: u64,
    },
    /// A cluster placement front-end declared one managed device and the
    /// capacity vector its admission decisions are charged against. Emitted
    /// once per device at install; the co-residency checker validates every
    /// [`AnalysisRecord::ClusterPlace`] against these declarations.
    ClusterDevice {
        /// Cluster-local device index (position in the front-end's device
        /// list, not the tracer's dense engine ordinal).
        device: u32,
        /// Device-memory capacity in bytes (the placement mem dimension).
        mem_bytes: u64,
        /// Concurrent-session capacity (the placement kernel-slot
        /// dimension).
        kernel_slots: u32,
    },
    /// A VGPU session became resident on a device: the placement decision
    /// took effect and the session's demand now occupies capacity there.
    ClusterPlace {
        /// Simulated timestamp the session became resident.
        time: SimTime,
        /// Cluster-wide VGPU session id.
        vgpu: u64,
        /// Tenant the session belongs to (DRF accounting unit).
        tenant: u64,
        /// Gang the session belongs to, if any. All placements sharing a
        /// gang id must name the same device (all-or-nothing co-placement).
        gang: Option<u64>,
        /// Cluster-local device index the session landed on.
        device: u32,
        /// Admission wave (0 = first; queued groups land in later waves).
        wave: u32,
        /// Device-memory demand charged against the device, in bytes.
        mem_bytes: u64,
    },
    /// A VGPU session left its device (normal completion or eviction); its
    /// demand no longer occupies capacity there.
    ClusterEvict {
        /// Simulated timestamp the session left.
        time: SimTime,
        /// Cluster-wide VGPU session id.
        vgpu: u64,
        /// Cluster-local device index the session left.
        device: u32,
    },
    /// A GVM declared the device-memory quota governing one rank's VGPU
    /// session, at boot. The quota checker validates every subsequent
    /// [`AnalysisRecord::QuotaCharge`] for that rank against this cap.
    QuotaSet {
        /// Simulated timestamp of the declaration (GVM boot).
        time: SimTime,
        /// GVM instance name (scopes ranks in multi-GVM traces).
        gvm: String,
        /// SPMD rank the quota applies to.
        rank: usize,
        /// Resolved cap in bytes; `0` means unlimited.
        quota: u64,
        /// The rank's declared device-memory demand in bytes.
        demand: u64,
    },
    /// Device bytes were charged against a rank's quota (admission-time
    /// allocation of its working set). Charged usage must never exceed the
    /// rank's declared quota.
    QuotaCharge {
        /// Simulated timestamp of the charge.
        time: SimTime,
        /// GVM instance name.
        gvm: String,
        /// SPMD rank being charged.
        rank: usize,
        /// Bytes charged by this event.
        bytes: u64,
        /// The rank's total charged bytes after this event.
        charged: u64,
    },
    /// Device bytes were credited back to a rank's quota (the working set
    /// was parked, freed, or reclaimed by eviction). Credits must balance
    /// charges to zero by the end of a completed run.
    QuotaCredit {
        /// Simulated timestamp of the credit.
        time: SimTime,
        /// GVM instance name.
        gvm: String,
        /// SPMD rank being credited.
        rank: usize,
        /// Bytes credited by this event.
        bytes: u64,
        /// The rank's total charged bytes after this event.
        charged: u64,
    },
    /// An idle-parked device allocation was demand-swapped out to pooled
    /// pinned host staging to relieve VRAM pressure: its bytes moved D2H
    /// into staging buffer `buf` and the device allocation was freed.
    SwapOut {
        /// Simulated timestamp the swap-out completed.
        time: SimTime,
        /// GVM instance name.
        gvm: String,
        /// Tracer ordinal of the device the allocation lived on.
        device: u32,
        /// Staging-pool buffer id now holding the swapped bytes.
        buf: u64,
        /// Size of the swapped working set in bytes.
        bytes: u64,
    },
    /// A swapped-out working set was restored to the device on next touch:
    /// re-allocated and moved H2D out of staging buffer `buf`, which is
    /// then recycled. Every swap-in must pair with an outstanding
    /// [`AnalysisRecord::SwapOut`] of the same buffer and size.
    SwapIn {
        /// Simulated timestamp the swap-in was issued.
        time: SimTime,
        /// GVM instance name.
        gvm: String,
        /// Tracer ordinal of the device the allocation returns to.
        device: u32,
        /// Staging-pool buffer id the bytes were restored from.
        buf: u64,
        /// Size of the restored working set in bytes.
        bytes: u64,
    },
    /// The GVM exported a pinned staging lease as a shared-memory segment
    /// and handed the owning rank a zero-copy descriptor for it (REQ/ACK
    /// time). The staging checker validates every subsequent
    /// [`AnalysisRecord::DescUse`] of the buffer against the newest grant's
    /// generation, and treats client writes to `segment` between a rank's
    /// `SND` receipt and its `RCV` receipt as a race.
    DescGrant {
        /// Simulated timestamp of the grant.
        time: SimTime,
        /// GVM instance name that issued the grant.
        gvm: String,
        /// SPMD rank the descriptor was handed to.
        rank: usize,
        /// Exported segment name (e.g. `"/gvm-shm-2"`).
        segment: String,
        /// Staging-pool buffer id backing the segment.
        buf: u64,
        /// Lease generation stamped into the descriptor.
        generation: u64,
        /// Descriptor extent in bytes.
        len: u64,
    },
    /// The GVM flush planner fused several co-flushed ranks' same-direction
    /// DMA ops into one coalesced batch submission. The manifest names
    /// every member sub-span in submission order; `gv-analyze`'s coalesce
    /// checker proves the manifest covers exactly the member spans (no
    /// overlap, no gap), that the member ranks are distinct, that each
    /// member's engine command exists on the named device and engine, that
    /// lease generations were current, and that no fusing crossed a
    /// quota/swap boundary.
    CoalesceOp {
        /// Simulated timestamp the batch was submitted.
        time: SimTime,
        /// GVM instance name that planned the batch.
        gvm: String,
        /// Tracer ordinal of the device the batch targets.
        device: u32,
        /// `true` for a fused H2D batch, `false` for D2H.
        h2d: bool,
        /// Total bytes moved by the whole batch.
        total: u64,
        /// Member ranks, in submission order (distinct).
        ranks: Vec<u64>,
        /// Member byte offsets within the fused batch (ascending from 0,
        /// gapless: `offsets[i+1] == offsets[i] + lens[i]`).
        offsets: Vec<u64>,
        /// Member payload lengths in bytes (sum == `total`).
        lens: Vec<u64>,
        /// Pool buffer id backing each member's staging lease.
        bufs: Vec<u64>,
        /// Lease generation of each member at submission time.
        gens: Vec<u64>,
        /// Engine command id of each member's sub-op (pairs with the
        /// per-device `CopyBegin`/`CopyEnd` label `"cmd-N"`).
        cmds: Vec<u64>,
    },
    /// A zero-copy descriptor was presented back to the GVM on `SND`.
    /// `ok` records the GVM's verdict; the staging checker independently
    /// re-derives staleness from the grant history, so a GVM that accepts
    /// a stale generation is caught even if it claims `ok`.
    DescUse {
        /// Simulated timestamp of the use.
        time: SimTime,
        /// GVM instance name that validated the descriptor.
        gvm: String,
        /// SPMD rank that presented the descriptor.
        rank: usize,
        /// Staging-pool buffer id the descriptor names.
        buf: u64,
        /// Generation carried by the presented descriptor.
        generation: u64,
        /// `true` when the GVM accepted the descriptor as current.
        ok: bool,
    },
    /// One blocked process observed at deadlock detection time. The engine
    /// emits one of these per live process, followed by a single
    /// [`AnalysisRecord::Deadlock`], whenever a run dies with
    /// `SimError::Deadlock` while analysis recording is on.
    DeadlockWaiter {
        /// Simulated time the deadlock was detected.
        time: SimTime,
        /// The blocked process.
        pid: Pid,
        /// Its name.
        process: String,
        /// The blocking operation it is stuck in.
        kind: WaitKind,
        /// The resource label it is waiting on (empty for a bare park).
        resource: String,
        /// Processes that could have unblocked it (wait-for edges).
        holders: Vec<Pid>,
    },
    /// The run deadlocked. Caps a group of
    /// [`AnalysisRecord::DeadlockWaiter`] records; `cycle` names a wait-for
    /// cycle (first pid repeated at the end) when one exists.
    Deadlock {
        /// Simulated time the deadlock was detected.
        time: SimTime,
        /// Wait-for cycle among the waiters, empty when acyclic.
        cycle: Vec<Pid>,
    },
    /// A condition-queue notify found no waiter to wake. Benign on its own
    /// (notifies may legitimately race ahead of waiters), but combined with
    /// a later deadlocked `CondWait` on the same resource it is the
    /// signature of a lost wakeup.
    NotifyLost {
        /// Simulated time of the notify.
        time: SimTime,
        /// The condition queue's resource label.
        resource: String,
    },
    /// An injected fault or a recovery action (see [`Tracer::fault`]).
    Fault {
        /// Simulated time of the event.
        time: SimTime,
        /// What happened, e.g. `"mq-drop:/gvm-req#0"` or `"evict:rank1"`.
        label: String,
    },
    /// The run ended. Whole-trace checkers that reason about terminal state
    /// (liveness) gate on this record so partially-dumped traces stay
    /// silent.
    RunEnd {
        /// Simulated end time.
        time: SimTime,
        /// True when every process finished before the horizon.
        completed: bool,
        /// True when the run died in a deadlock.
        deadlocked: bool,
    },
}

struct Inner {
    enabled: AtomicBool,
    records: Mutex<Vec<AnalysisRecord>>,
    /// Engine clock mirror so layers without a `Ctx` (host-side allocator
    /// calls) can still timestamp records.
    now_ns: AtomicU64,
    devices: AtomicU64,
    /// Run-global transfer-group id allocator (see
    /// [`Tracer::alloc_xfer_id`]).
    xfers: AtomicU64,
    /// Run-global staging-pool buffer id allocator (see
    /// [`Tracer::alloc_pool_buf_id`]).
    pool_bufs: AtomicU64,
}

/// Cheaply cloneable handle to a shared trace buffer.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer with an empty buffer.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                records: Mutex::new(Vec::new()),
                now_ns: AtomicU64::new(0),
                devices: AtomicU64::new(0),
                xfers: AtomicU64::new(1),
                pool_bufs: AtomicU64::new(1),
            }),
        }
    }

    /// Turn recording (vector clocks + [`AnalysisRecord`]s) on or off.
    pub fn set_analysis(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording currently on? Emitters that must build a record's
    /// fields (labels, clocks) check this first.
    pub fn analysis_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Append one record (no-op while recording is off).
    pub fn record_analysis(&self, rec: AnalysisRecord) {
        if !self.analysis_enabled() {
            return;
        }
        self.inner.records.lock().push(rec);
    }

    /// Snapshot all records recorded so far, in record order.
    pub fn analysis_snapshot(&self) -> Vec<AnalysisRecord> {
        self.inner.records.lock().clone()
    }

    /// Record an injected-fault or recovery event. Fault-injection layers
    /// across the stack all funnel through here so a run's fault schedule
    /// can be replayed and diffed as part of its trace.
    pub fn fault(&self, time: SimTime, label: impl Into<String>) {
        self.record_analysis(AnalysisRecord::Fault {
            time,
            label: label.into(),
        });
    }

    /// The [`AnalysisRecord::Fault`] events recorded so far, as
    /// `(time, label)` in record order.
    pub fn fault_events(&self) -> Vec<(SimTime, String)> {
        self.inner
            .records
            .lock()
            .iter()
            .filter_map(|r| match r {
                AnalysisRecord::Fault { time, label } => Some((*time, label.clone())),
                _ => None,
            })
            .collect()
    }

    /// Register a device with the tracer, returning a dense ordinal that
    /// disambiguates per-device command/stream ids in analysis records.
    pub fn register_device(&self, max_concurrent_kernels: u32) -> u32 {
        let ord = self.inner.devices.fetch_add(1, Ordering::Relaxed) as u32;
        self.record_analysis(AnalysisRecord::DeviceRegistered {
            device: ord,
            max_concurrent_kernels,
        });
        ord
    }

    /// Allocate a transfer-group id, unique across the whole run. Staging
    /// layers of different GVMs share one trace, so per-GVM counters would
    /// alias [`AnalysisRecord::StageChunk`] groups.
    pub fn alloc_xfer_id(&self) -> u64 {
        self.inner.xfers.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a staging-pool buffer id, unique across the whole run (the
    /// per-pool analogue of [`alloc_xfer_id`](Self::alloc_xfer_id)).
    pub fn alloc_pool_buf_id(&self) -> u64 {
        self.inner.pool_bufs.fetch_add(1, Ordering::Relaxed)
    }

    /// Mirror of the engine clock, updated on every time advance. Exact
    /// whenever the caller runs inside the simulation (only one process
    /// runs at a time); layers without a `Ctx` use it to timestamp records.
    pub fn now_hint(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn set_now_hint(&self, t: SimTime) {
        self.inner.now_ns.store(t.as_nanos(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn analysis_records_gated_by_flag() {
        let tr = Tracer::new();
        tr.record_analysis(AnalysisRecord::ProtoEvict {
            time: t(1),
            gvm: "gvm".to_string(),
            rank: 0,
        });
        tr.fault(t(1), "mq-drop:/q#0");
        assert!(tr.analysis_snapshot().is_empty());
        tr.set_analysis(true);
        tr.record_analysis(AnalysisRecord::ProtoEvict {
            time: t(2),
            gvm: "gvm".to_string(),
            rank: 3,
        });
        assert_eq!(tr.analysis_snapshot().len(), 1);
    }

    #[test]
    fn fault_events_filter_the_record_stream() {
        let tr = Tracer::new();
        tr.set_analysis(true);
        tr.register_device(16);
        tr.fault(t(2), "mq-drop:/gvm-req#0");
        tr.record_analysis(AnalysisRecord::ProtoEvict {
            time: t(3),
            gvm: "gvm".to_string(),
            rank: 1,
        });
        tr.fault(t(3), "evict:rank1");
        assert_eq!(
            tr.fault_events(),
            [
                (t(2), "mq-drop:/gvm-req#0".to_string()),
                (t(3), "evict:rank1".to_string())
            ]
        );
        assert_eq!(tr.analysis_snapshot().len(), 4);
    }

    #[test]
    fn device_registration_allocates_dense_ordinals() {
        let tr = Tracer::new();
        tr.set_analysis(true);
        assert_eq!(tr.register_device(16), 0);
        assert_eq!(tr.register_device(16), 1);
        assert_eq!(tr.analysis_snapshot().len(), 2);
    }
}
