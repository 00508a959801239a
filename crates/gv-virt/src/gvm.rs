//! The GPU Virtualization Manager (paper §V).
//!
//! The GVM is a run-time process that owns the *single* GPU context and all
//! GPU resources. At initialization it creates, for every SPMD rank: a
//! virtual shared memory segment, a response queue, a CUDA stream, device
//! memory, and pinned staging buffers, and pre-binds the rank's kernels —
//! then serves `REQ/SND/STR/STP/RCV/RLS` requests. `STR` requests are
//! buffered behind a barrier and all streams are flushed together so Fermi
//! can overlap copies with compute and run small kernels concurrently
//! within the one context.
//!
//! *When* buffered streams are flushed is delegated to a pluggable
//! [`SchedPolicy`] (see [`crate::sched`]): the paper's joint full-width
//! flush is the default, with FCFS, adaptive batching, and
//! shortest-job-first available for staggered or heterogeneous groups.
//! The scheduler also owns the barrier-width computation, so eviction and
//! release re-arm the barrier through the same policy code path that
//! dispatches it.
//!
//! With [`GvmConfig::fault_tolerance`] enabled the serve loop degrades
//! gracefully instead of wedging: requests are received with a deadline, a
//! rank that stops responding (crashed client, lost message beyond the
//! client's retry budget) is *evicted* — its device memory, shared-memory
//! segment and response queue are reclaimed as an implicit `RLS` — and the
//! `STR` barrier is re-armed at the reduced width so the surviving ranks
//! still flush and complete. Sequence numbers on requests make client
//! retries idempotent: a stage the GVM already served is answered from the
//! recorded response instead of being re-executed.

use std::sync::Arc;

use gv_cuda::CudaDevice;
use gv_gpu::DevicePtr;
use gv_ipc::{MessageQueue, MqRegistry, Node, SharedMem, ShmRegistry};
use gv_kernels::GpuTask;
use gv_mem::{
    AdaptiveChooser, CachedAlloc, CoalesceMember, CoalescePlan, DeviceAllocCache, LeaseBacking,
    MemConfig, PipelineConfig, StagingDescriptor, StagingLease, StagingPool,
};
use gv_sim::{Ctx, Gate, RecvTimeout, SimDuration, Simulation};
use parking_lot::Mutex;

use crate::protocol::{Endpoints, NakReason, Request, RequestKind, Response, ResponseKind};
use crate::quota::MemQuota;
use crate::sched::{self, Dispatch, SchedPolicy, Scheduler};

/// Recovery knobs for a fault-tolerant GVM (see
/// [`GvmConfig::fault_tolerance`]).
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// How long the `STR` barrier waits for stragglers once at least one
    /// rank has arrived, before evicting the missing ranks and flushing at
    /// reduced width.
    pub barrier_timeout: SimDuration,
    /// How long the serve loop waits for *any* request before declaring
    /// the remaining active ranks dead and evicting them.
    pub idle_timeout: SimDuration,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            barrier_timeout: SimDuration::from_millis(20),
            idle_timeout: SimDuration::from_millis(100),
        }
    }
}

/// GVM configuration.
#[derive(Debug, Clone)]
pub struct GvmConfig {
    /// Instance name (namespaces queues and segments).
    pub name: String,
    /// Number of SPMD processes served (the `STR` barrier width).
    pub ntask: usize,
    /// Client `STP` poll backoff: initial interval.
    pub poll_initial: SimDuration,
    /// Client `STP` poll backoff: cap.
    pub poll_max: SimDuration,
    /// Ablation: drain each rank's stream before flushing the next (no
    /// cross-process overlap — what a naive time-sharing manager would do).
    pub serial_flush: bool,
    /// Depth bound for the shared request queue (`None` = unbounded).
    /// A bounded queue exerts backpressure: senders block in simulated
    /// time until the GVM drains.
    pub req_queue_capacity: Option<usize>,
    /// `Some` enables graceful degradation: timed receives, rank eviction
    /// with resource reclamation, reduced-width barrier re-arming, and
    /// device memory allocated lazily at first `SND` (overcommit) instead
    /// of at boot. `None` keeps the seed's fault-free behavior exactly.
    pub fault_tolerance: Option<FtConfig>,
    /// Stream-dispatch policy (default: the paper's joint flush).
    pub scheduler: SchedPolicy,
    /// Buffer-lifecycle configuration (staging pool is always on; chunked
    /// copy/compute pipelining is off by default, which keeps the GVM
    /// bit-identical to serial staging).
    pub mem: MemConfig,
    /// Per-rank device-memory quotas (index = rank; short vectors pad
    /// with [`MemQuota::Unlimited`]). `None` disables quota accounting
    /// entirely. With every quota unlimited the GVM's schedule is
    /// bit-identical to `None` — only `QuotaSet`/`QuotaCharge`/
    /// `QuotaCredit` analysis records are added. Any *finite* quota
    /// switches device allocation to the lazy first-`SND` path so an
    /// over-quota demand is answered with an `OverQuota` NAK at admission
    /// instead of a boot-time panic.
    pub quotas: Option<Vec<MemQuota>>,
    /// Enable VRAM oversubscription by demand-swap: when a lazy
    /// allocation does not fit, idle working sets parked in the
    /// device-allocation cache are evicted to pooled pinned host staging
    /// (LRU by last release) until the allocation fits, and restored
    /// through the chunked planner on next touch.
    pub swap: bool,
}

impl GvmConfig {
    /// Defaults for `ntask` processes.
    pub fn new(ntask: usize) -> Self {
        GvmConfig {
            name: "gvm".to_string(),
            ntask,
            poll_initial: SimDuration::from_micros(50),
            poll_max: SimDuration::from_millis(4),
            serial_flush: false,
            req_queue_capacity: None,
            fault_tolerance: None,
            scheduler: SchedPolicy::JointFlush,
            mem: MemConfig::default(),
            quotas: None,
            swap: false,
        }
    }

    /// `self` with the given stream-dispatch policy.
    pub fn with_scheduler(self, scheduler: SchedPolicy) -> Self {
        GvmConfig { scheduler, ..self }
    }

    /// `self` with the given buffer-lifecycle configuration (e.g.
    /// [`MemConfig::pipelined`] to enable chunked transfers).
    pub fn with_mem(self, mem: MemConfig) -> Self {
        GvmConfig { mem, ..self }
    }

    /// The serial-flush ablation variant.
    pub fn serial_flush(ntask: usize) -> Self {
        GvmConfig {
            serial_flush: true,
            ..Self::new(ntask)
        }
    }

    /// A fault-tolerant instance with default recovery timeouts.
    pub fn fault_tolerant(ntask: usize) -> Self {
        GvmConfig {
            fault_tolerance: Some(FtConfig::default()),
            ..Self::new(ntask)
        }
    }

    /// `self` with per-rank device-memory quotas (enables quota
    /// accounting and admission enforcement).
    pub fn with_quotas(self, quotas: Vec<MemQuota>) -> Self {
        GvmConfig {
            quotas: Some(quotas),
            ..self
        }
    }

    /// `self` with demand-swap oversubscription enabled.
    pub fn with_swap(self) -> Self {
        GvmConfig { swap: true, ..self }
    }

    /// The quota governing `rank` (unlimited when none was configured).
    pub fn quota_for(&self, rank: usize) -> MemQuota {
        self.quotas
            .as_ref()
            .and_then(|q| q.get(rank))
            .copied()
            .unwrap_or(MemQuota::Unlimited)
    }

    /// True when any configured quota is finite — the trigger for lazy
    /// first-`SND` device allocation in a fault-free GVM.
    pub fn has_finite_quota(&self) -> bool {
        self.quotas
            .as_ref()
            .is_some_and(|q| q.iter().any(|m| !m.is_unlimited()))
    }
}

/// Counters describing what the GVM did (virtualization-overhead audit).
#[derive(Debug, Clone, Default)]
pub struct GvmStats {
    /// `SND` staging copies performed (shm → pinned).
    pub snd_copies: u64,
    /// `RCV` copies performed (pinned → shm).
    pub rcv_copies: u64,
    /// Total simulated time the GVM spent in staging memcpys.
    pub copy_time: SimDuration,
    /// `STR` barrier flushes performed.
    pub flushes: u64,
    /// Total simulated time spent submitting stream work at flushes.
    pub submit_time: SimDuration,
    /// `STP` queries answered with `WAIT`.
    pub stp_waits: u64,
    /// Ranks evicted by the fault-tolerance layer (timeout or `NAK`).
    pub evictions: u64,
    /// Requests answered with `NAK`.
    pub naks: u64,
    /// Duplicate requests answered from the recorded response (or
    /// silently ignored while the original is still barriered).
    pub dedup_hits: u64,
    /// Flushes that covered a strict subset of the then-active ranks
    /// (partial policies only; always 0 under `JointFlush`).
    pub partial_flushes: u64,
    /// Largest `STR` backlog observed when a new `STR` arrived.
    pub queue_depth_max: u64,
    /// Sum of the `STR` backlog over all arrivals (with
    /// [`GvmStats::queue_depth_samples`], yields the mean depth).
    pub queue_depth_sum: u64,
    /// Number of `STR` arrivals sampled into the queue-depth counters.
    pub queue_depth_samples: u64,
    /// Total simulated time between the first `STR` of each batch window
    /// and the dispatch that drained it — the queueing delay the policy
    /// imposed while the GPU could have been running.
    pub idle_gap: SimDuration,
    /// Staging-pool acquires served from a free list.
    pub pool_hits: u64,
    /// Staging-pool acquires that allocated a fresh pinned buffer.
    pub pool_misses: u64,
    /// Peak pinned bytes simultaneously leased from the staging pool.
    pub pool_high_water_bytes: u64,
    /// Device allocations served from the allocation cache (fault-tolerant
    /// GVMs only; always 0 otherwise).
    pub devcache_hits: u64,
    /// Device-allocation cache lookups that fell through to `cudaMalloc`.
    pub devcache_misses: u64,
    /// Payload transfers that were split into pipelined chunks.
    pub chunked_transfers: u64,
    /// Individual chunk copies submitted for those transfers.
    pub chunks_submitted: u64,
    /// `SND`s served as steady-state prefetches: next round's input staged
    /// into the double buffer while the current round still computed.
    pub steady_prefetches: u64,
    /// Pinned buffers released by the staging pool's high-water shrink.
    pub pool_released_buffers: u64,
    /// Pinned bytes released by the staging pool's high-water shrink.
    pub pool_released_bytes: u64,
    /// Staging-pool lease-cap overshoots by the GVM's non-blocking
    /// acquires (the serve loop never blocks against its own recycles).
    pub pool_over_cap: u64,
    /// Acquires that blocked on the lease cap (client-side users of the
    /// pool; always 0 for the GVM's own acquires).
    pub pool_backpressure_waits: u64,
    /// Admissions refused because the session's device-memory demand
    /// exceeded its quota (`OverQuota` NAKs; a subset of `naks`).
    pub quota_naks: u64,
    /// Idle parked working sets demand-swapped out to pinned host staging
    /// to make room for another admission.
    pub swap_outs: u64,
    /// Swapped working sets restored to device memory on next touch.
    pub swap_ins: u64,
    /// Bytes moved device→host by swap-outs.
    pub swapped_out_bytes: u64,
    /// Bytes moved host→device by swap-ins.
    pub swapped_in_bytes: u64,
    /// Fused DMA submissions issued by the coalescing flush path (each
    /// covers ≥ 2 ranks' transfers in one engine sweep).
    pub fused_dma_groups: u64,
    /// Individual rank transfers riding inside those fused submissions.
    pub fused_dma_subs: u64,
    /// Batched kernel-launch waves submitted (one launch-overhead charge
    /// covering every co-flushed rank's kernels for that iteration).
    pub batched_launch_waves: u64,
    /// Kernel launches carried by those batched waves.
    pub batched_launches: u64,
    /// All DMA submissions made by the flush path (fused or not) — the
    /// denominator of [`fused_dma_ratio`](Self::fused_dma_ratio).
    pub flush_dma_ops: u64,
}

impl GvmStats {
    /// Mean `STR` backlog at arrival (0.0 if no `STR` was sampled).
    pub fn queue_depth_mean(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// Accumulate another instance's counters into this one (the cluster
    /// front-end merges all per-(device, wave) GVMs into one audit).
    /// Counters and durations add; high-water marks take the max.
    pub fn merge(&mut self, other: &GvmStats) {
        // No `..`: a field added to `GvmStats` fails to compile here
        // until it is merged.
        let GvmStats {
            snd_copies,
            rcv_copies,
            copy_time,
            flushes,
            submit_time,
            stp_waits,
            evictions,
            naks,
            dedup_hits,
            partial_flushes,
            queue_depth_max,
            queue_depth_sum,
            queue_depth_samples,
            idle_gap,
            pool_hits,
            pool_misses,
            pool_high_water_bytes,
            devcache_hits,
            devcache_misses,
            chunked_transfers,
            chunks_submitted,
            steady_prefetches,
            pool_released_buffers,
            pool_released_bytes,
            pool_over_cap,
            pool_backpressure_waits,
            quota_naks,
            swap_outs,
            swap_ins,
            swapped_out_bytes,
            swapped_in_bytes,
            fused_dma_groups,
            fused_dma_subs,
            batched_launch_waves,
            batched_launches,
            flush_dma_ops,
        } = other;
        self.snd_copies += *snd_copies;
        self.rcv_copies += *rcv_copies;
        self.copy_time += *copy_time;
        self.flushes += *flushes;
        self.submit_time += *submit_time;
        self.stp_waits += *stp_waits;
        self.evictions += *evictions;
        self.naks += *naks;
        self.dedup_hits += *dedup_hits;
        self.partial_flushes += *partial_flushes;
        self.queue_depth_max = self.queue_depth_max.max(*queue_depth_max);
        self.queue_depth_sum += *queue_depth_sum;
        self.queue_depth_samples += *queue_depth_samples;
        self.idle_gap += *idle_gap;
        self.pool_hits += *pool_hits;
        self.pool_misses += *pool_misses;
        self.pool_high_water_bytes = self.pool_high_water_bytes.max(*pool_high_water_bytes);
        self.devcache_hits += *devcache_hits;
        self.devcache_misses += *devcache_misses;
        self.chunked_transfers += *chunked_transfers;
        self.chunks_submitted += *chunks_submitted;
        self.steady_prefetches += *steady_prefetches;
        self.pool_released_buffers += *pool_released_buffers;
        self.pool_released_bytes += *pool_released_bytes;
        self.pool_over_cap += *pool_over_cap;
        self.pool_backpressure_waits += *pool_backpressure_waits;
        self.quota_naks += *quota_naks;
        self.swap_outs += *swap_outs;
        self.swap_ins += *swap_ins;
        self.swapped_out_bytes += *swapped_out_bytes;
        self.swapped_in_bytes += *swapped_in_bytes;
        self.fused_dma_groups += *fused_dma_groups;
        self.fused_dma_subs += *fused_dma_subs;
        self.batched_launch_waves += *batched_launch_waves;
        self.batched_launches += *batched_launches;
        self.flush_dma_ops += *flush_dma_ops;
    }

    /// Fraction of flush-path DMA submissions that rode in a fused group
    /// (0.0 when the flush path moved nothing).
    pub fn fused_dma_ratio(&self) -> f64 {
        if self.flush_dma_ops == 0 {
            0.0
        } else {
            self.fused_dma_subs as f64 / self.flush_dma_ops as f64
        }
    }

    /// Fraction of staging-pool acquires served without allocating
    /// (0.0 if the pool was never used).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Lifecycle of one rank inside the serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Serving normally.
    Active,
    /// Forcibly removed by the fault-tolerance layer; resources reclaimed.
    Evicted,
    /// Sent `RLS`.
    Released,
}

/// The rank's device-side allocation (held from boot in the fault-free
/// GVM; from first `SND` in the fault-tolerant one).
struct RankGpuAlloc {
    dev_base: DevicePtr,
    kernels: Vec<gv_gpu::KernelDesc>,
}

/// The GVM's buffer-lifecycle state: staging pool, device-allocation
/// cache, pipeline config, the adaptive chunk chooser, and the
/// transfer-group id counter.
struct MemLayer {
    mem: MemConfig,
    pool: StagingPool,
    devcache: DeviceAllocCache,
    chooser: AdaptiveChooser,
    /// Reusable span scratch [`plan`](Self::plan) fills: steady-state
    /// rounds plan their transfers without allocating.
    spans: Vec<gv_mem::Span>,
    /// Reusable ACK-order scratch for `flush_group`.
    ack: Vec<usize>,
    /// Coalescing only: host address one past the end of the most recent
    /// input-lease acquisition, used as the placement hint for the next
    /// one so co-flushed ranks' staging leases reconstitute adjacency
    /// even when served from recycled (LIFO-shuffled) free lists. `None`
    /// when coalescing is off — hinted acquires can reorder free lists,
    /// and the off path must stay bit-identical to the pre-coalescing
    /// schedule.
    chain_next: Option<u64>,
}

impl MemLayer {
    /// Plan `payload` into [`spans`](Self::spans): pick a chunk count
    /// (or take the caller-forced `k` — the first-round-only ablation pins
    /// steady-state rounds to `k = 1`), allocate a transfer-group id, and
    /// commit the plan to the analysis stream (so the staging checker
    /// holds the transfer to exactly that tiling); returns the id. Callers
    /// must stage/record every planned span.
    fn plan(&mut self, tracer: &gv_sim::Tracer, rank: usize, payload: u64, k: Option<u64>) -> u64 {
        let k = k.unwrap_or_else(|| self.chooser.choose(payload, &self.mem.pipeline));
        PipelineConfig::plan_exact_into(payload, k, &mut self.spans);
        // Tracer-global id: co-resident GVMs share one analysis stream.
        let xfer = tracer.alloc_xfer_id();
        if payload > 0 {
            gv_mem::record_plan(
                tracer,
                rank,
                xfer,
                payload,
                self.spans.len() as u64,
                self.mem.pipeline.chunks.max(1) as u64,
                self.mem.pipeline.adaptive,
            );
        }
        xfer
    }

    /// Zero `bytes` of device memory at `ptr` span by span through the
    /// chunked planner, so the staging checker audits the tiling like any
    /// other transfer: a recycled or swapped-in allocation must look fresh
    /// to a functional task, whose untouched device memory reads as zeroes.
    fn zero_fill(
        &mut self,
        tracer: &gv_sim::Tracer,
        cuda: &CudaDevice,
        rank: usize,
        ptr: DevicePtr,
        bytes: u64,
    ) {
        let xfer = self.plan(tracer, rank, bytes, None);
        let zeros = vec![0u8; bytes as usize];
        for &span in &self.spans {
            cuda.device()
                .with_memory(|m| m.write_bytes(ptr.add(span.offset), &zeros[..span.len as usize]))
                .expect("zero recycled device allocation");
            gv_mem::record_chunk(
                tracer,
                cuda.device().tracer_ordinal(),
                rank,
                xfer,
                true,
                span,
                bytes,
                0,
                String::new(),
            );
        }
    }
}

/// One planned transfer between a staging lease and device memory, moved
/// span by span on one stream. Every chunked copy the GVM makes — flush
/// H2D/D2H, the `SND` pre-issue, swap-in and swap-out — is submitted
/// here.
struct SpanCopy<'a> {
    cc: &'a gv_cuda::CudaContext,
    stream: gv_gpu::StreamId,
    rank: usize,
    /// Transfer-group id from [`MemLayer::plan`].
    xfer: u64,
    h2d: bool,
    payload: u64,
    lease: &'a StagingLease,
    /// Device address of the payload's first byte.
    dev: DevicePtr,
}

impl SpanCopy<'_> {
    /// Submit every span's async copy and record it as a chunk of the
    /// transfer; returns the number of copies submitted.
    fn submit(&self, ctx: &mut Ctx, spans: &[gv_mem::Span]) -> u64 {
        self.submit_staged(ctx, spans, |_, _| true);
        spans.len() as u64
    }

    /// [`submit`](Self::submit) with a hook run before each span: the
    /// staged `SND` stages the span from shm into the lease there. The
    /// hook returns whether the span's copy is issued now; a deferred span
    /// (its H2D left to the flush) is recorded without a command label.
    fn submit_staged(
        &self,
        ctx: &mut Ctx,
        spans: &[gv_mem::Span],
        mut stage: impl FnMut(&mut Ctx, gv_mem::Span) -> bool,
    ) {
        let analysis = ctx.tracer().analysis_enabled();
        let buf = self.lease.buffer();
        for &span in spans {
            let mut label = String::new();
            if stage(ctx, span) {
                let dev = self.dev.add(span.offset);
                let cmd = if self.h2d {
                    self.cc
                        .memcpy_h2d_async_at(ctx, self.stream, buf, span.offset, dev, span.len)
                } else {
                    self.cc
                        .memcpy_d2h_async_at(ctx, self.stream, dev, buf, span.offset, span.len)
                }
                .expect("GVM span copy submit");
                if analysis {
                    label = format!("cmd-{}", cmd.id);
                }
            }
            gv_mem::record_chunk(
                ctx.tracer(),
                self.cc.cuda().device().tracer_ordinal(),
                self.rank,
                self.xfer,
                self.h2d,
                span,
                self.payload,
                self.lease.id(),
                label,
            );
        }
    }
}

struct RankResources {
    shm: SharedMem,
    resp: MessageQueue<Response>,
    /// Index of this rank's device/context (multi-GPU nodes round-robin).
    dev_idx: usize,
    stream: gv_gpu::StreamId,
    gpu: Option<RankGpuAlloc>,
    /// Pooled pinned staging lease for the current round's input payload
    /// (acquired at `SND`, recycled at `RCV`).
    pinned_in: Option<StagingLease>,
    /// Pooled pinned staging lease for the current round's output payload
    /// (acquired at flush, recycled at `RCV`).
    pinned_out: Option<StagingLease>,
    /// Chunked pipelining pre-issued iteration 0's H2D copies at `SND`;
    /// the flush must not submit that copy again.
    h2d_preissued: bool,
    /// Steady-state double buffer: next round's input lease, staged by a
    /// prefetched `SND` while the current round is still on the device.
    /// Promoted to `pinned_in` at `RCV`.
    pinned_in_next: Option<StagingLease>,
    /// The prefetched `SND` already pre-issued next round's H2D copies
    /// (behind the current round's work on the same in-order stream).
    h2d_preissued_next: bool,
    /// Tail of the stream at the end of this rank's last flush. Steady
    /// `STP` polls this instead of the raw stream tail, which may already
    /// include next round's pre-issued H2D.
    round_tail: Option<gv_gpu::CommandHandle>,
    /// NUMA node of this rank's staging leases (from its core pinning).
    numa: usize,
    /// Zero-copy transport: the session-lifetime pinned lease whose bytes
    /// *are* the rank's shm segment (leased at boot, recycled at `RLS`).
    /// `None` on the staged-copy path.
    zc_lease: Option<StagingLease>,
    /// The descriptor granted to the client at `REQ` `ACK` (what a valid
    /// `SND` must present back). Cleared when the lease is recycled.
    zc_desc: Option<StagingDescriptor>,
    /// Completed `RCV` rounds this session (drives the first-round-only
    /// ablation schedule).
    rounds_done: u32,
    task: GpuTask,
    state: RankState,
    /// Device bytes currently charged against this rank's quota (0 when
    /// quota accounting is off).
    charged: u64,
    /// Highest request sequence number seen from this rank (0 = none).
    last_seq: u64,
    /// Response recorded for `last_seq`, for idempotent retries. `None`
    /// while the request is still barriered (`STR` awaiting flush).
    last_resp: Option<ResponseKind>,
}

/// Handle returned by [`Gvm::install`]: everything a client process needs
/// to connect, plus lifecycle gates for the harness.
#[derive(Clone)]
pub struct GvmHandle {
    /// Queue/segment naming.
    pub endpoints: Endpoints,
    /// Configuration (barrier width, poll backoff).
    pub config: Arc<GvmConfig>,
    /// Shared-memory namespace for this node.
    pub shm: ShmRegistry,
    /// Request-queue namespace.
    pub req_mq: MqRegistry<Request>,
    /// Response-queue namespace.
    pub resp_mq: MqRegistry<Response>,
    /// Opens once the GVM finished initializing all virtual resources.
    pub ready: Gate,
    /// Opens once every rank has sent `RLS`.
    pub done: Gate,
    /// Per-rank task descriptions (clients read their input sizes here).
    pub tasks: Arc<Vec<GpuTask>>,
    /// Post-run statistics.
    pub stats: Arc<Mutex<GvmStats>>,
}

impl GvmHandle {
    /// The task assigned to `rank`.
    pub fn task(&self, rank: usize) -> &GpuTask {
        &self.tasks[rank]
    }
}

/// The GPU Virtualization Manager installer.
pub struct Gvm;

impl Gvm {
    /// Spawn a GVM process into `sim` serving `tasks[r]` for rank `r`.
    /// The GVM boots (context creation, resource setup) before opening
    /// `ready`; clients must wait on it.
    pub fn install(
        sim: &mut Simulation,
        node: &Node,
        cuda: &CudaDevice,
        config: GvmConfig,
        tasks: Vec<GpuTask>,
    ) -> GvmHandle {
        Self::install_multi(sim, node, std::slice::from_ref(cuda), config, tasks)
    }

    /// Multi-GPU variant: the GVM owns one context per device and assigns
    /// rank `r` to device `r % devices.len()` (the paper's architecture has
    /// one GPU per node; this extension shows the layer generalizes to
    /// fatter nodes without touching the client protocol).
    pub fn install_multi(
        sim: &mut Simulation,
        node: &Node,
        cudas: &[CudaDevice],
        config: GvmConfig,
        tasks: Vec<GpuTask>,
    ) -> GvmHandle {
        let handle = Self::prepare(node, config, tasks);
        Self::spawn_prepared(sim, &handle, cudas, node);
        handle
    }

    /// Construct a [`GvmHandle`] (registries, gates, task table) without
    /// spawning the manager process. Clients may connect to a prepared
    /// handle immediately — they block on `ready` until some process later
    /// boots the manager via [`Gvm::spawn_prepared`] or
    /// [`Gvm::spawn_prepared_from`]. The cluster front-end uses this to
    /// pre-wire every admission wave at install time and boot later waves
    /// only when their predecessors drain.
    pub fn prepare(node: &Node, config: GvmConfig, tasks: Vec<GpuTask>) -> GvmHandle {
        assert_eq!(tasks.len(), config.ntask, "one task per SPMD rank required");
        assert!(config.ntask >= 1);
        GvmHandle {
            endpoints: Endpoints::new(&config.name),
            config: Arc::new(config),
            shm: ShmRegistry::new(node.config()),
            req_mq: MqRegistry::new(node.config()),
            resp_mq: MqRegistry::new(node.config()),
            ready: Gate::new(),
            done: Gate::new(),
            tasks: Arc::new(tasks),
            stats: Arc::new(Mutex::new(GvmStats::default())),
        }
    }

    /// Boot the manager process for a [prepared](Gvm::prepare) handle from
    /// the simulation's top level.
    pub fn spawn_prepared(
        sim: &mut Simulation,
        handle: &GvmHandle,
        cudas: &[CudaDevice],
        node: &Node,
    ) {
        sim.spawn(&handle.endpoints.gvm, Self::manager(handle, cudas, node));
    }

    /// Boot the manager process for a [prepared](Gvm::prepare) handle from
    /// within a running process (e.g. a cluster wave controller releasing
    /// the next admission wave once the previous one drains).
    pub fn spawn_prepared_from(ctx: &Ctx, handle: &GvmHandle, cudas: &[CudaDevice], node: &Node) {
        ctx.spawn(&handle.endpoints.gvm, Self::manager(handle, cudas, node));
    }

    /// The manager process body for a prepared handle.
    fn manager(
        handle: &GvmHandle,
        cudas: &[CudaDevice],
        node: &Node,
    ) -> impl FnOnce(&mut Ctx) + Send + 'static {
        assert!(!cudas.is_empty(), "at least one device required");
        let (h, cudas, node) = (handle.clone(), cudas.to_vec(), node.clone());
        move |ctx| gvm_main(ctx, h, cudas, node)
    }
}

fn gvm_main(ctx: &mut Ctx, h: GvmHandle, cudas: Vec<CudaDevice>, node: Node) {
    let cfg = &h.config;
    let endpoints = &h.endpoints;
    let ft = cfg.fault_tolerance.clone();

    // --- Initialization (paper Fig. 8, left column top) -----------------
    // "Gets the GPU device / Initializes Context": one charged context per
    // device (a single-GPU node pays exactly one creation).
    let contexts: Vec<gv_cuda::CudaContext> = cudas
        .iter()
        .enumerate()
        .map(|(i, cuda)| cuda.create_context(ctx, &format!("{}-ctx{i}", endpoints.gvm)))
        .collect();
    let req_q = h
        .req_mq
        .create(&endpoints.request_queue(), cfg.req_queue_capacity)
        .expect("request queue name free");

    // Fault-free GVMs pre-allocate at boot (Fig. 8); the fault-tolerant
    // one overcommits and allocates at first SND so an OOM can be answered
    // with a NAK instead of a boot-time panic. A finite quota forces the
    // lazy path too (an over-quota demand must become an OverQuota NAK at
    // admission, never a silent boot-time grab), as does swap: an
    // oversubscribed session set cannot all be resident at boot.
    let lazy_alloc = ft.is_some() || cfg.has_finite_quota() || cfg.swap;

    // One lease window serves both directions on the zero-copy path, so
    // it cannot coexist with the steady-state double buffer (which needs
    // next round's input alive while this round's output drains).
    assert!(
        !(cfg.mem.zero_copy && cfg.mem.pipeline.steady),
        "zero_copy is incompatible with steady double-buffering"
    );

    // The buffer-lifecycle layer: one staging pool and one device
    // allocation cache per GVM instance, plus the running transfer-group
    // counter that ties chunk records together in analysis traces. The
    // adaptive chunk chooser is seeded from the models this run already
    // uses — staging rate from the node's memcpy bandwidth, transfer rate
    // from the device's pinned H2D bandwidth, per-chunk overhead from the
    // fixed latencies both sides charge per span — and refined online by
    // an EWMA of measured staging latency. Built before the rank loop
    // because zero-copy boot leases each rank's segment from the pool.
    let dev_cfg = cudas[0].device().config();
    let chooser = AdaptiveChooser::new(
        1.0 / node.config().memcpy_gbps,
        1.0e9 / dev_cfg.h2d_bytes_per_sec(true),
        (node.config().shm_latency + dev_cfg.dma_latency).as_nanos() as f64,
    );
    let mut ml = MemLayer {
        mem: cfg.mem,
        pool: StagingPool::with_config(cfg.mem.pool),
        devcache: DeviceAllocCache::new(),
        chooser,
        spans: Vec::new(),
        ack: Vec::new(),
        chain_next: None,
    };

    let mut ranks: Vec<RankResources> = Vec::with_capacity(cfg.ntask);
    for r in 0..cfg.ntask {
        let task = h.tasks[r].clone();
        // Shaped multi-round sessions size the segment (and the zero-copy
        // lease) for their largest round.
        let shm_size = task.max_bytes_in().max(task.bytes_out).max(1);
        // Ranks map onto NUMA nodes by their core pinning so a rank's
        // leases come from free lists local to its socket.
        let cores = node.config().cores.max(1);
        let numa = (r % cores) * cfg.mem.pool.numa_nodes.max(1) / cores;
        // Zero-copy: the rank's segment is not a private byte array the
        // GVM copies out of — it is a *view of a pinned pool lease*. The
        // client's SND write lands directly in pinned memory and H2D
        // issues straight from it; the staged-copy path keeps the plain
        // segment.
        let zc_lease = cfg.mem.zero_copy.then(|| {
            ml.pool
                .acquire_on(ctx.tracer(), shm_size, task.is_functional(), numa)
        });
        let shm = match &zc_lease {
            Some(lease) => h.shm.create_backed(
                &endpoints.shm(r),
                shm_size,
                Arc::new(LeaseBacking::new(lease)),
            ),
            None => h.shm.create(&endpoints.shm(r), shm_size),
        }
        .expect("shm name free");
        let resp = h
            .resp_mq
            .create(&endpoints.response_queue(r), None)
            .expect("response queue name free");
        let dev_idx = r % contexts.len();
        let cc = &contexts[dev_idx];
        let stream = cc.stream_create();
        let gpu = if !lazy_alloc {
            let dev_base = cc
                .malloc(task.device_bytes.max(1))
                .expect("GVM device allocation");
            // "Prepares the kernels to be executed when initialized".
            let kernels = task.bind_kernels(dev_base);
            Some(RankGpuAlloc { dev_base, kernels })
        } else {
            None
        };
        // Pinned staging is leased per round from the shared pool (at SND
        // for input, at flush for output) instead of allocated per rank
        // here — recycled leases make steady-state rounds allocation-free.
        ranks.push(RankResources {
            shm,
            resp,
            dev_idx,
            stream,
            gpu,
            pinned_in: None,
            pinned_out: None,
            h2d_preissued: false,
            pinned_in_next: None,
            h2d_preissued_next: false,
            round_tail: None,
            numa,
            zc_lease,
            zc_desc: None,
            rounds_done: 0,
            task,
            state: RankState::Active,
            charged: 0,
            last_seq: 0,
            last_resp: None,
        });
        // With quota accounting on, an eager boot allocation is charged
        // (and its quota declared) right here; the lazy path declares at
        // REQ and charges at first SND.
        if cfg.quotas.is_some() && !lazy_alloc {
            let rank = ranks.last_mut().expect("pushed above");
            let bytes = rank.task.device_bytes.max(1);
            quota_declare(ctx, &h, &cudas, rank, r);
            quota_charge(ctx, &h, &cudas, rank, r, bytes);
        }
    }
    // The dispatch policy. Per-rank service estimates feed shortest-job-
    // first ordering; the other policies ignore them.
    let costs_ms: Vec<f64> = (0..cfg.ntask)
        .map(|r| {
            sched::estimate_cost_ms(
                &h.tasks[r],
                cudas[r % cudas.len()].device().config(),
                node.config(),
            )
        })
        .collect();
    let mut scheduler: Box<dyn Scheduler> = cfg.scheduler.build(costs_ms);
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::ProtoSched {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            policy: scheduler.name().to_string(),
            partial: scheduler.partial_flush(),
        });
    h.ready.open(ctx);

    // --- Serve loop ------------------------------------------------------
    let mut str_waiting: Vec<usize> = Vec::new();
    // Absolute deadline for the current barrier round, fixed when the
    // first STR arrives. Retried/duplicated requests received during the
    // stall must NOT push it out, or steady client retries could keep a
    // dead barrier alive forever.
    let mut barrier_deadline: Option<gv_sim::SimTime> = None;
    // When the oldest pending STR arrived — anchors the scheduler's batch
    // timeout and the idle-gap metric.
    let mut batch_start: Option<gv_sim::SimTime> = None;
    let mut finished = 0usize; // released + evicted
    while finished < cfg.ntask {
        if str_waiting.is_empty() {
            barrier_deadline = None;
            batch_start = None;
        }
        // The scheduler's own deadline (AdaptiveBatch timer), independent
        // of fault tolerance: it fires a dispatch, never an eviction.
        let sched_deadline = match (scheduler.batch_timeout(), batch_start) {
            (Some(t), Some(b)) => Some(b + t),
            _ => None,
        };
        let req = if ft.is_some() || sched_deadline.is_some() {
            let ft_deadline = ft.as_ref().map(|ft| match barrier_deadline {
                Some(d) => d,
                None => ctx.now() + ft.idle_timeout,
            });
            let deadline = ft_deadline
                .into_iter()
                .chain(sched_deadline)
                .min()
                .expect("timed receive requires a deadline");
            match req_q.recv_timeout(ctx, deadline.duration_since(ctx.now())) {
                RecvTimeout::Msg(req) => req,
                RecvTimeout::Closed => break,
                RecvTimeout::TimedOut => {
                    // A batch-timer expiry flushes whatever is pending,
                    // nobody presumed dead; a fault-tolerance deadline
                    // evicts first.
                    let sched_fired =
                        sched_deadline.is_some_and(|sd| ft_deadline.is_none_or(|fd| sd <= fd));
                    if !sched_fired {
                        // The ranks that never barriered are gone: with
                        // nothing barriered and nobody talking, that is
                        // every remaining active rank; with a stalled
                        // barrier, the stragglers — then the policy
                        // re-arms at the reduced width and flushes so
                        // survivors complete.
                        let stalled = !str_waiting.is_empty();
                        for r in 0..ranks.len() {
                            if ranks[r].state == RankState::Active && !str_waiting.contains(&r) {
                                evict(
                                    ctx,
                                    &h,
                                    &cudas,
                                    &contexts,
                                    &mut ranks,
                                    &mut str_waiting,
                                    &mut ml,
                                    r,
                                );
                                finished += 1;
                            }
                        }
                        if !stalled {
                            continue;
                        }
                        ctx.tracer()
                            .fault(ctx.now(), format!("barrier-degrade:{}", str_waiting.len()));
                    }
                    let groups = scheduler.on_deadline(&str_waiting, active_count(&ranks));
                    dispatch_groups(
                        ctx,
                        &h,
                        &contexts,
                        &mut ranks,
                        &mut str_waiting,
                        &mut batch_start,
                        &mut ml,
                        groups,
                    );
                    continue;
                }
            }
        } else {
            let Some(req) = req_q.recv(ctx) else { break };
            req
        };
        let r = req.rank;
        // Record construction clones the instance name; skip it when no
        // analysis sink is attached so the request loop stays
        // allocation-free (the tracer drops gated records anyway).
        if ctx.tracer().analysis_enabled() {
            ctx.tracer().record_analysis(gv_sim::AnalysisRecord::Proto {
                time: ctx.now(),
                gvm: h.endpoints.gvm.clone(),
                rank: r,
                kind: req.kind.label(),
                seq: req.seq,
            });
        }

        // Idempotent retry handling: a sequence number at or below the
        // last one served is a duplicate (client retry after a lost
        // response, or a duplicated request message).
        if req.seq != 0 && req.seq <= ranks[r].last_seq {
            h.stats.lock().dedup_hits += 1;
            if req.seq == ranks[r].last_seq {
                if let Some(kind) = ranks[r].last_resp {
                    // Replay carries the current grant so a client whose
                    // REQ ACK was lost still receives its descriptor.
                    let _ = ranks[r].resp.send(
                        ctx,
                        Response {
                            seq: req.seq,
                            kind,
                            desc: ranks[r].zc_desc,
                        },
                    );
                }
                // else: the original is still barriered in str_waiting —
                // the ACK will go out at flush; never barrier twice.
            }
            continue;
        }
        ranks[r].last_seq = req.seq;
        ranks[r].last_resp = None;

        // An evicted (or already-released) rank gets a NAK so a retrying
        // client stops instead of timing out forever.
        if ranks[r].state != RankState::Active {
            h.stats.lock().naks += 1;
            let _ = ranks[r].resp.send(ctx, Response::nak(req.seq));
            ranks[r].last_resp = Some(ResponseKind::Nak(NakReason::Evicted));
            continue;
        }

        match req.kind {
            RequestKind::Req => {
                // "Provides Virtual and GPU Resource" — pre-created at init
                // (fault-free) or deferred to SND (fault-tolerant). On the
                // lazy path the quota is declared and enforced here: a
                // session whose declared demand cannot ever fit its quota
                // is refused at admission, not after staging work.
                if cfg.quotas.is_some()
                    && lazy_alloc
                    && !quota_declare(ctx, &h, &cudas, &ranks[r], r)
                {
                    ctx.tracer().fault(ctx.now(), format!("quota-nak:rank{r}"));
                    {
                        let mut stats = h.stats.lock();
                        stats.naks += 1;
                        stats.quota_naks += 1;
                    }
                    send_recorded(
                        ctx,
                        &mut ranks[r],
                        Response::nak_reason(req.seq, NakReason::OverQuota),
                    );
                    evict(
                        ctx,
                        &h,
                        &cudas,
                        &contexts,
                        &mut ranks,
                        &mut str_waiting,
                        &mut ml,
                        r,
                    );
                    finished += 1;
                    let groups = scheduler.on_membership(&str_waiting, active_count(&ranks));
                    dispatch_groups(
                        ctx,
                        &h,
                        &contexts,
                        &mut ranks,
                        &mut str_waiting,
                        &mut batch_start,
                        &mut ml,
                        groups,
                    );
                    continue;
                }
                // Zero-copy: the REQ ACK carries the staging descriptor —
                // the client's window into this rank's lease-backed
                // segment. The generation stamp is what later SNDs are
                // validated against.
                let mut resp = Response::ack(req.seq);
                if cfg.mem.zero_copy {
                    let rank = &mut ranks[r];
                    let lease = rank
                        .zc_lease
                        .as_ref()
                        .expect("zero-copy rank leased at boot");
                    let len = rank.task.max_bytes_in().max(rank.task.bytes_out).max(1);
                    let desc = lease.descriptor(0, len);
                    rank.zc_desc = Some(desc);
                    if ctx.tracer().analysis_enabled() {
                        ctx.tracer()
                            .record_analysis(gv_sim::AnalysisRecord::DescGrant {
                                time: ctx.now(),
                                gvm: h.endpoints.gvm.clone(),
                                rank: r,
                                segment: endpoints.shm(r),
                                buf: desc.segment,
                                generation: desc.generation,
                                len: desc.len,
                            });
                    }
                    resp = resp.with_desc(desc);
                }
                send_recorded(ctx, &mut ranks[r], resp);
            }
            RequestKind::Snd => {
                // Lazy GVMs (fault-tolerant or finite-quota) allocate
                // device memory here; an OOM becomes a NAK + eviction
                // instead of a wedge. Allocations parked by earlier
                // evictions are reused before touching the device
                // allocator, and with swap enabled a miss may evict idle
                // parked working sets to host staging to make room.
                if lazy_alloc && ranks[r].gpu.is_none() {
                    let dev_bytes = ranks[r].task.device_bytes.max(1);
                    let dev_idx = ranks[r].dev_idx;
                    let stream = ranks[r].stream;
                    let numa = ranks[r].numa;
                    let functional = ranks[r].task.is_functional();
                    let base = match ml.devcache.take(dev_idx, dev_bytes) {
                        Some(CachedAlloc::Resident(ptr)) => {
                            // A recycled allocation must look fresh to a
                            // functional task.
                            if functional {
                                ml.zero_fill(ctx.tracer(), &cudas[dev_idx], r, ptr, dev_bytes);
                            }
                            Ok(ptr)
                        }
                        Some(CachedAlloc::Swapped(lease)) => {
                            // Re-admit a swapped-out working set: allocate
                            // device memory (demand-swapping others if
                            // needed), restore the staged bytes through
                            // the chunked planner, and only then return
                            // the lease to the pool.
                            match alloc_with_swap(
                                ctx, &h, &cudas, &contexts, &mut ml, r, dev_idx, stream, numa,
                                dev_bytes,
                            ) {
                                Ok(ptr) => {
                                    let xfer = ml.plan(ctx.tracer(), r, dev_bytes, None);
                                    SpanCopy {
                                        cc: &contexts[dev_idx],
                                        stream,
                                        rank: r,
                                        xfer,
                                        h2d: true,
                                        payload: dev_bytes,
                                        lease: &lease,
                                        dev: ptr,
                                    }
                                    .submit(ctx, &ml.spans);
                                    // Recycle only after the restore
                                    // copies completed (no use-after-
                                    // recycle on the staging buffer).
                                    contexts[dev_idx].stream_synchronize(ctx, stream);
                                    ctx.tracer()
                                        .record_analysis(gv_sim::AnalysisRecord::SwapIn {
                                            time: ctx.now(),
                                            gvm: h.endpoints.gvm.clone(),
                                            device: cudas[dev_idx].device().tracer_ordinal(),
                                            buf: lease.id(),
                                            bytes: dev_bytes,
                                        });
                                    {
                                        let mut stats = h.stats.lock();
                                        stats.swap_ins += 1;
                                        stats.swapped_in_bytes += dev_bytes;
                                    }
                                    ml.pool.recycle(ctx.tracer(), lease);
                                    // The restored bytes belonged to the
                                    // entry's previous owner; a functional
                                    // task needs fresh zeroes, same as the
                                    // resident-recycle path.
                                    if functional {
                                        ml.zero_fill(
                                            ctx.tracer(),
                                            &cudas[dev_idx],
                                            r,
                                            ptr,
                                            dev_bytes,
                                        );
                                    }
                                    Ok(ptr)
                                }
                                Err(e) => {
                                    // Park the working set back so its
                                    // bytes are not lost with the lease.
                                    ml.devcache
                                        .park_swapped(dev_idx, dev_bytes, lease, ctx.now());
                                    Err(e)
                                }
                            }
                        }
                        None => alloc_with_swap(
                            ctx, &h, &cudas, &contexts, &mut ml, r, dev_idx, stream, numa,
                            dev_bytes,
                        ),
                    };
                    match base {
                        Ok(dev_base) => {
                            let kernels = ranks[r].task.bind_kernels(dev_base);
                            ranks[r].gpu = Some(RankGpuAlloc { dev_base, kernels });
                            quota_charge(ctx, &h, &cudas, &mut ranks[r], r, dev_bytes);
                        }
                        Err(_) => {
                            ctx.tracer().fault(ctx.now(), format!("oom-nak:rank{r}"));
                            h.stats.lock().naks += 1;
                            send_recorded(
                                ctx,
                                &mut ranks[r],
                                Response::nak_reason(req.seq, NakReason::Oom),
                            );
                            evict(
                                ctx,
                                &h,
                                &cudas,
                                &contexts,
                                &mut ranks,
                                &mut str_waiting,
                                &mut ml,
                                r,
                            );
                            finished += 1;
                            let groups =
                                scheduler.on_membership(&str_waiting, active_count(&ranks));
                            dispatch_groups(
                                ctx,
                                &h,
                                &contexts,
                                &mut ranks,
                                &mut str_waiting,
                                &mut batch_start,
                                &mut ml,
                                groups,
                            );
                            continue;
                        }
                    }
                }
                if cfg.mem.zero_copy {
                    // Zero-copy SND: the payload already sits in pinned
                    // memory (the client wrote it through the lease-backed
                    // segment), so there is no shm→pinned copy to perform
                    // — snd_copies/copy_time stay untouched. Validate the
                    // presented descriptor's generation first: a recycled
                    // lease means the window now aliases someone else's
                    // buffer and the SND must be refused.
                    let ok = req
                        .desc
                        .is_some_and(|d| ranks[r].zc_desc == Some(d) && ml.pool.validate(&d));
                    if ctx.tracer().analysis_enabled() {
                        let (buf, generation) =
                            req.desc.map_or((0, 0), |d| (d.segment, d.generation));
                        ctx.tracer()
                            .record_analysis(gv_sim::AnalysisRecord::DescUse {
                                time: ctx.now(),
                                gvm: h.endpoints.gvm.clone(),
                                rank: r,
                                buf,
                                generation,
                                ok,
                            });
                    }
                    if !ok {
                        ctx.tracer().fault(ctx.now(), format!("stale-desc:rank{r}"));
                        h.stats.lock().naks += 1;
                        send_recorded(
                            ctx,
                            &mut ranks[r],
                            Response::nak_reason(req.seq, NakReason::Stale),
                        );
                        continue;
                    }
                    let bytes = ranks[r].task.bytes_in_for_round(ranks[r].rounds_done);
                    if bytes > 0 {
                        // H2D issues straight from the lease; every span
                        // is handed to the copy engine now, ahead of the
                        // kernels on the same in-order stream, so the
                        // flush skips iteration 0's upload.
                        let xfer = ml.plan(ctx.tracer(), r, bytes, None);
                        let rank = &mut ranks[r];
                        SpanCopy {
                            cc: &contexts[rank.dev_idx],
                            stream: rank.stream,
                            rank: r,
                            xfer,
                            h2d: true,
                            payload: bytes,
                            lease: rank.zc_lease.as_ref().expect("zero-copy lease"),
                            dev: rank.gpu.as_ref().expect("SND after allocation").dev_base,
                        }
                        .submit(ctx, &ml.spans);
                        rank.h2d_preissued = true;
                        if ml.spans.len() > 1 {
                            let mut stats = h.stats.lock();
                            stats.chunked_transfers += 1;
                            stats.chunks_submitted += ml.spans.len() as u64;
                        }
                    }
                    send_recorded(ctx, &mut ranks[r], Response::ack(req.seq));
                    continue;
                }
                // "Copies Data from Virtual Shared Memory to Host Pinned
                // Memory" — performed by the GVM, charged to the GVM.
                // Payloads at or above the pipeline threshold are split
                // into chunks, each handed to the copy engine the moment
                // it is staged, so the H2D of chunk i overlaps the shm
                // staging of chunk i+1.
                let functional = ranks[r].task.is_functional();
                // First-round-only ablation: steady-state rounds fall
                // back to serial whole-payload staging with the H2D
                // deferred to flush (the pre-PR schedule the ROADMAP
                // documented; kept as the sweep baseline).
                let ablate = ml.mem.pipeline.first_round_only && ranks[r].rounds_done > 0;
                // Steady-state prefetch: a second SND arriving while
                // this rank's round is still on the device stages next
                // round's input into the double buffer and pre-issues
                // its H2D behind the in-flight work on the same
                // in-order stream — iteration overlap across rounds.
                let prefetch = ml.mem.pipeline.steady && !ablate && ranks[r].pinned_in.is_some();
                // A prefetched SND stages *next* round's input, so shaped
                // sessions re-plan the double buffer at next round's size
                // instead of falling back to serial.
                let bytes = ranks[r]
                    .task
                    .bytes_in_for_round(ranks[r].rounds_done + u32::from(prefetch));
                if bytes > 0 {
                    let t0 = ctx.now();
                    // Coalescing: chain this lease right after the last
                    // one handed out, so co-flushed ranks' staging leases
                    // sit adjacent and the flush planner can fuse them.
                    let rank = &mut ranks[r];
                    let slot = if prefetch {
                        &mut rank.pinned_in_next
                    } else {
                        &mut rank.pinned_in
                    };
                    if slot.is_none() {
                        let coalesce = ml.mem.coalesce.enabled;
                        let hint = ml.chain_next.filter(|_| coalesce);
                        let lease =
                            ml.pool
                                .acquire_at(ctx.tracer(), bytes, functional, rank.numa, hint);
                        if coalesce {
                            ml.chain_next = Some(lease.place_addr() + lease.capacity());
                        }
                        *slot = Some(lease);
                    }
                    let lease = slot.as_ref().expect("pinned input leased above");
                    let xfer = ml.plan(ctx.tracer(), r, bytes, ablate.then_some(1));
                    let chunked = ml.spans.len() > 1;
                    let mut stage_ns = 0u64;
                    SpanCopy {
                        cc: &contexts[rank.dev_idx],
                        stream: rank.stream,
                        rank: r,
                        xfer,
                        h2d: true,
                        payload: bytes,
                        lease,
                        dev: rank.gpu.as_ref().expect("SND after allocation").dev_base,
                    }
                    .submit_staged(ctx, &ml.spans, |ctx, span| {
                        let s0 = ctx.now();
                        gv_mem::stage_span(ctx, &rank.shm, lease.buffer(), span, true)
                            .expect("SND staging");
                        stage_ns += ctx.now().duration_since(s0).as_nanos();
                        // Chunked transfers hand every span to the copy
                        // engine as it is staged; prefetched rounds hand
                        // over even a single span (the whole point is
                        // getting the H2D in before the round boundary).
                        chunked || prefetch
                    });
                    // Feed the measured staging latency back into the
                    // adaptive model.
                    ml.chooser.observe_stage(bytes, stage_ns);
                    if prefetch {
                        ranks[r].h2d_preissued_next = true;
                    } else {
                        ranks[r].h2d_preissued = chunked;
                    }
                    let mut stats = h.stats.lock();
                    stats.snd_copies += 1;
                    stats.copy_time += ctx.now().duration_since(t0);
                    if prefetch {
                        stats.steady_prefetches += 1;
                    }
                    if chunked {
                        stats.chunked_transfers += 1;
                        stats.chunks_submitted += ml.spans.len() as u64;
                    }
                }
                send_recorded(ctx, &mut ranks[r], Response::ack(req.seq));
            }
            RequestKind::Str => {
                // "Buffers the STR message … Barrier to synchronize STR
                // from all processes", then flush per the policy. The ACK
                // is recorded at flush time (last_resp stays None until
                // then, which is what makes retried STRs safe).
                str_waiting.push(r);
                batch_start.get_or_insert(ctx.now());
                if let Some(ft) = &ft {
                    barrier_deadline.get_or_insert(ctx.now() + ft.barrier_timeout);
                }
                {
                    let depth = str_waiting.len() as u64;
                    let mut stats = h.stats.lock();
                    stats.queue_depth_samples += 1;
                    stats.queue_depth_sum += depth;
                    stats.queue_depth_max = stats.queue_depth_max.max(depth);
                }
                let groups = scheduler.on_str(&str_waiting, active_count(&ranks));
                dispatch_groups(
                    ctx,
                    &h,
                    &contexts,
                    &mut ranks,
                    &mut str_waiting,
                    &mut batch_start,
                    &mut ml,
                    groups,
                );
            }
            RequestKind::Stp => {
                // "If status(stream)=0 sends WAIT, otherwise sends ACK".
                // In steady mode the stream tail may already include next
                // round's pre-issued H2D, so completion is judged at the
                // round boundary recorded at flush, not the raw tail.
                let done = match &ranks[r].round_tail {
                    Some(tail) => tail.is_done(),
                    None => contexts[ranks[r].dev_idx].stream_query(ranks[r].stream),
                };
                let resp = if done {
                    Response::ack(req.seq)
                } else {
                    h.stats.lock().stp_waits += 1;
                    Response::wait(req.seq)
                };
                send_recorded(ctx, &mut ranks[r], resp);
            }
            RequestKind::Rcv => {
                // "Copies Result Data from Host Pinned Memory to Virtual
                // Shared Memory" — the same span-wise staging path as SND,
                // in the other direction. On the zero-copy path there is
                // nothing to move: the flush's final-iteration D2H already
                // landed the results in the lease that *is* the segment,
                // so the ACK alone tells the client to read them out
                // (rcv_copies stays untouched).
                let bytes = ranks[r].task.bytes_out;
                if bytes > 0 && !cfg.mem.zero_copy {
                    let t0 = ctx.now();
                    let rank = &mut ranks[r];
                    let lease = rank
                        .pinned_out
                        .as_ref()
                        .expect("RCV after flush leased pinned_out");
                    for span in ml.mem.pipeline.plan(bytes) {
                        gv_mem::stage_span(ctx, &rank.shm, lease.buffer(), span, false)
                            .expect("RCV staging");
                    }
                    let mut stats = h.stats.lock();
                    stats.rcv_copies += 1;
                    stats.copy_time += ctx.now().duration_since(t0);
                }
                // End of the rank's round: both staging leases go back to
                // the pool (this round's copies are done — the client's
                // STP was ACKed at the round boundary before it sent RCV —
                // so no copy still references them; a prefetched next
                // round's H2D reads `pinned_in_next`, which is promoted,
                // never recycled, here).
                let rank = &mut ranks[r];
                for l in [rank.pinned_in.take(), rank.pinned_out.take()]
                    .into_iter()
                    .flatten()
                {
                    ml.pool.recycle(ctx.tracer(), l);
                }
                rank.pinned_in = rank.pinned_in_next.take();
                rank.h2d_preissued = std::mem::take(&mut rank.h2d_preissued_next);
                rank.round_tail = None;
                rank.rounds_done += 1;
                send_recorded(ctx, rank, Response::ack(req.seq));
            }
            RequestKind::Rls => {
                finished += 1;
                let rank = &mut ranks[r];
                rank.state = RankState::Released;
                let idle = contexts[rank.dev_idx].stream_query(rank.stream);
                // Under lazy allocation (fault tolerance or finite quotas)
                // a released rank's device allocation is parked in the
                // same cache the evict path feeds, so a later admission of
                // the same shape (e.g. a second scheduling wave) reuses it
                // instead of paying cudaMalloc again — and so demand-swap
                // has idle working sets to evict. Fault-free unlimited GVMs
                // keep allocations live to shutdown.
                if let Some(gpu) = rank.gpu.take_if(|_| lazy_alloc && idle) {
                    let bytes = rank.task.device_bytes.max(1);
                    ml.devcache
                        .put(rank.dev_idx, bytes, gpu.dev_base, ctx.now());
                }
                // Releasing the session releases its quota charge (the
                // parked allocation is cache capacity, not session
                // commitment).
                quota_credit_all(ctx, &h, &cudas, rank, r);
                // A client that releases mid-cycle (after a prefetch,
                // before the round it fed) leaves staged leases behind.
                reclaim_leases(ctx, &mut ml, rank, idle);
                send_recorded(ctx, rank, Response::ack(req.seq));
                // A release shrinks the group: the barrier other ranks are
                // waiting behind may now be satisfied at the reduced width
                // (in every mode — the seed only re-evaluated under fault
                // tolerance, which hung non-uniform fault-free groups).
                let groups = scheduler.on_membership(&str_waiting, active_count(&ranks));
                dispatch_groups(
                    ctx,
                    &h,
                    &contexts,
                    &mut ranks,
                    &mut str_waiting,
                    &mut batch_start,
                    &mut ml,
                    groups,
                );
            }
        }
    }

    // Free device resources still held (released ranks keep theirs until
    // GVM shutdown; evicted ranks were reclaimed at eviction), and settle
    // any quota charge a rank still carries (a Closed-queue exit can leave
    // sessions mid-cycle).
    for r in 0..ranks.len() {
        quota_credit_all(ctx, &h, &cudas, &mut ranks[r], r);
        if let Some(gpu) = &ranks[r].gpu {
            let _ = cudas[ranks[r].dev_idx].device().free(gpu.dev_base);
        }
        // A Closed-queue exit can leave zero-copy sessions mid-cycle with
        // their boot leases still held; settle them so the pool's
        // allocated/in-use ledgers balance at shutdown.
        if let Some(l) = ranks[r].zc_lease.take() {
            ml.pool.recycle(ctx.tracer(), l);
        }
    }
    // Return parked device allocations with real frees so the device's
    // alloc/free balance (and `used() == 0`) holds at shutdown; swapped
    // entries hold no device memory, their staging leases go back to the
    // pool (`PoolRecycle` is the retirement marker the quota checker
    // matches against outstanding swap-outs).
    for (dev, _bytes, state) in ml.devcache.drain() {
        match state {
            CachedAlloc::Resident(ptr) => {
                let _ = cudas[dev].device().free(ptr);
            }
            CachedAlloc::Swapped(lease) => {
                ml.pool.recycle(ctx.tracer(), lease);
            }
        }
    }
    {
        let ps = ml.pool.stats();
        let cs = ml.devcache.stats();
        let mut stats = h.stats.lock();
        stats.pool_hits = ps.hits;
        stats.pool_misses = ps.misses;
        stats.pool_high_water_bytes = ps.high_water_bytes;
        stats.pool_released_buffers = ps.released_buffers;
        stats.pool_released_bytes = ps.released_bytes;
        stats.pool_over_cap = ps.over_cap;
        stats.pool_backpressure_waits = ps.backpressure_waits;
        stats.devcache_hits = cs.hits;
        stats.devcache_misses = cs.misses;
    }
    h.done.open(ctx);
}

/// Send `resp` to `rank` and record it for idempotent retries. In the
/// fault-free GVM a send failure is a bug (queues never close); under
/// fault tolerance a closed queue just means the rank is already gone.
fn send_recorded(ctx: &mut Ctx, rank: &mut RankResources, resp: Response) {
    rank.last_resp = Some(resp.kind);
    let _ = rank.resp.send(ctx, resp);
}

/// Declare rank `r`'s quota and device-memory demand on the analysis
/// stream; returns whether the demand can ever fit the quota.
fn quota_declare(
    ctx: &Ctx,
    h: &GvmHandle,
    cudas: &[CudaDevice],
    rank: &RankResources,
    r: usize,
) -> bool {
    let demand = rank.task.device_bytes.max(1);
    let cap = cudas[rank.dev_idx].device().with_memory(|m| m.capacity());
    let quota = h.config.quota_for(r);
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::QuotaSet {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            rank: r,
            quota: quota.resolve(cap).unwrap_or(0),
            demand,
        });
    quota.admits(demand, cap)
}

/// Charge `bytes` against rank `r`'s quota meter, the device's commitment
/// ledger, and the analysis stream. No-op when quota accounting is off.
fn quota_charge(
    ctx: &Ctx,
    h: &GvmHandle,
    cudas: &[CudaDevice],
    rank: &mut RankResources,
    r: usize,
    bytes: u64,
) {
    if h.config.quotas.is_none() {
        return;
    }
    rank.charged += bytes;
    cudas[rank.dev_idx]
        .device()
        .with_memory(|m| m.charge(bytes));
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::QuotaCharge {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            rank: r,
            bytes,
            charged: rank.charged,
        });
}

/// Release everything rank `r` still has charged against its quota (at
/// `RLS`, eviction, or GVM shutdown). No-op when nothing is charged.
fn quota_credit_all(
    ctx: &Ctx,
    h: &GvmHandle,
    cudas: &[CudaDevice],
    rank: &mut RankResources,
    r: usize,
) {
    if rank.charged == 0 {
        return;
    }
    let bytes = std::mem::take(&mut rank.charged);
    cudas[rank.dev_idx]
        .device()
        .with_memory(|m| m.credit(bytes));
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::QuotaCredit {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            rank: r,
            bytes,
            charged: 0,
        });
}

/// Allocate `bytes` on `dev_idx` for rank `r`, demand-swapping idle parked
/// working sets (LRU-first) out to pooled pinned host staging until the
/// allocation fits — when [`GvmConfig::swap`] is on; a plain `malloc`
/// otherwise. The requesting rank's (idle) stream carries the D2H copies,
/// and each victim's device memory is freed only after its copies
/// completed, so no copy ever references freed memory.
#[allow(clippy::too_many_arguments)]
fn alloc_with_swap(
    ctx: &mut Ctx,
    h: &GvmHandle,
    cudas: &[CudaDevice],
    contexts: &[gv_cuda::CudaContext],
    ml: &mut MemLayer,
    r: usize,
    dev_idx: usize,
    stream: gv_gpu::StreamId,
    numa: usize,
    bytes: u64,
) -> Result<DevicePtr, gv_cuda::CudaError> {
    loop {
        let err = match contexts[dev_idx].malloc(bytes) {
            Ok(ptr) => return Ok(ptr),
            Err(e) => e,
        };
        if !h.config.swap {
            return Err(err);
        }
        // Pick the coldest resident parked allocation on this device; if
        // nothing is parked there is nothing left to swap and the OOM is
        // final.
        let Some((vbytes, vptr, vstamp)) = ml.devcache.lru_resident(dev_idx) else {
            return Err(err);
        };
        // Stage the victim's bytes into an opaque pool lease through the
        // chunked planner (the staging checker audits the tiling like any
        // other transfer), then free the device memory and re-park the
        // entry as swapped with its LRU stamp preserved. `acquire_on`
        // never blocks, so admission backpressure cannot deadlock against
        // a swap in progress.
        let lease = ml.pool.acquire_on(ctx.tracer(), vbytes, false, numa);
        let xfer = ml.plan(ctx.tracer(), r, vbytes, None);
        SpanCopy {
            cc: &contexts[dev_idx],
            stream,
            rank: r,
            xfer,
            h2d: false,
            payload: vbytes,
            lease: &lease,
            dev: vptr,
        }
        .submit(ctx, &ml.spans);
        contexts[dev_idx].stream_synchronize(ctx, stream);
        let _ = cudas[dev_idx].device().free(vptr);
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::SwapOut {
                time: ctx.now(),
                gvm: h.endpoints.gvm.clone(),
                device: cudas[dev_idx].device().tracer_ordinal(),
                buf: lease.id(),
                bytes: vbytes,
            });
        {
            let mut stats = h.stats.lock();
            stats.swap_outs += 1;
            stats.swapped_out_bytes += vbytes;
        }
        ml.devcache.park_swapped(dev_idx, vbytes, lease, vstamp);
    }
}

/// Evict `r`: reclaim its device memory, close and unlink its response
/// queue, unlink its shared-memory segment, and drop it from the barrier —
/// an implicit `RLS` performed by the GVM on the rank's behalf. With work
/// still in flight the device allocation is freed for real instead of
/// parked in the cache, and the leases are not recycled
/// ([`reclaim_leases`]).
#[allow(clippy::too_many_arguments)]
fn evict(
    ctx: &mut Ctx,
    h: &GvmHandle,
    cudas: &[CudaDevice],
    contexts: &[gv_cuda::CudaContext],
    ranks: &mut [RankResources],
    str_waiting: &mut Vec<usize>,
    ml: &mut MemLayer,
    r: usize,
) {
    let rank = &mut ranks[r];
    rank.state = RankState::Evicted;
    let idle = contexts[rank.dev_idx].stream_query(rank.stream);
    if let Some(gpu) = rank.gpu.take() {
        if idle {
            ml.devcache.put(
                rank.dev_idx,
                rank.task.device_bytes.max(1),
                gpu.dev_base,
                ctx.now(),
            );
        } else {
            let _ = cudas[rank.dev_idx].device().free(gpu.dev_base);
        }
    }
    quota_credit_all(ctx, h, cudas, rank, r);
    reclaim_leases(ctx, ml, rank, idle);
    rank.resp.close(ctx);
    let _ = h.resp_mq.unlink(&h.endpoints.response_queue(r));
    let _ = h.shm.unlink(&h.endpoints.shm(r));
    str_waiting.retain(|&w| w != r);
    ctx.tracer().fault(ctx.now(), format!("evict:rank{r}"));
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::ProtoEvict {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            rank: r,
        });
    h.stats.lock().evictions += 1;
}

/// Reclaim `rank`'s staging leases at `RLS` or eviction. With its stream
/// `idle` they go back to the pool; with work still in flight they are
/// dropped un-recycled, so no other rank can ever be handed a buffer an
/// in-flight copy still references. The zero-copy lease's generation is
/// bumped either way (recycled, or retired while copies are in flight), so
/// any descriptor the client still holds goes stale.
fn reclaim_leases(ctx: &Ctx, ml: &mut MemLayer, rank: &mut RankResources, idle: bool) {
    let staged = [
        rank.pinned_in.take(),
        rank.pinned_in_next.take(),
        rank.pinned_out.take(),
    ];
    for lease in staged.into_iter().flatten() {
        if idle {
            ml.pool.recycle(ctx.tracer(), lease);
        }
    }
    if let Some(lease) = rank.zc_lease.take() {
        rank.zc_desc = None;
        if idle {
            ml.pool.recycle(ctx.tracer(), lease);
        } else {
            ml.pool.retire(ctx.tracer(), lease);
        }
    }
    rank.round_tail = None;
}

/// Number of ranks still being served.
fn active_count(ranks: &[RankResources]) -> usize {
    ranks
        .iter()
        .filter(|k| k.state == RankState::Active)
        .count()
}

/// Execute the scheduler's decision: flush each returned group in order.
/// Resets the batch window once the backlog drains.
#[allow(clippy::too_many_arguments)]
fn dispatch_groups(
    ctx: &mut Ctx,
    h: &GvmHandle,
    contexts: &[gv_cuda::CudaContext],
    ranks: &mut [RankResources],
    str_waiting: &mut Vec<usize>,
    batch_start: &mut Option<gv_sim::SimTime>,
    ml: &mut MemLayer,
    groups: Vec<Dispatch>,
) {
    for group in groups {
        if group.is_empty() {
            continue;
        }
        flush_group(
            ctx,
            h,
            contexts,
            ranks,
            str_waiting,
            batch_start,
            ml,
            &group,
        );
    }
    if str_waiting.is_empty() {
        *batch_start = None;
    }
}

/// Flush one group's streams (in the scheduler's submission order), then
/// ACK the covered ranks in `STR` arrival order and drop them from the
/// barrier.
#[allow(clippy::too_many_arguments)]
fn flush_group(
    ctx: &mut Ctx,
    h: &GvmHandle,
    contexts: &[gv_cuda::CudaContext],
    ranks: &mut [RankResources],
    str_waiting: &mut Vec<usize>,
    batch_start: &Option<gv_sim::SimTime>,
    ml: &mut MemLayer,
    group: &[usize],
) {
    let cfg = &h.config;
    let t0 = ctx.now();
    let active = active_count(ranks);
    // One executor; only the split into waves differs. Coalescing submits
    // the whole group as one wave. Otherwise every rank is its own wave —
    // the paper's per-rank schedule — and the serial-flush ablation drains
    // each rank's stream before the next. Coalescing never runs on the
    // serial schedule or in a swapping GVM: demand-swap can relocate lease
    // windows mid-session, so fusing across it is forbidden (the
    // gv-analyze coalesce checker enforces this over traces).
    if ml.mem.coalesce.enabled && !cfg.serial_flush && !cfg.swap {
        flush_waves(ctx, h, contexts, ranks, ml, group);
    } else {
        for &r in group {
            flush_waves(ctx, h, contexts, ranks, ml, std::slice::from_ref(&r));
            if cfg.serial_flush {
                contexts[ranks[r].dev_idx].stream_synchronize(ctx, ranks[r].stream);
            }
        }
    }
    // The queueing delay this dispatch imposed: how long the oldest
    // pending STR sat behind the policy's trigger.
    let gap = batch_start
        .map(|b| t0.duration_since(b))
        .unwrap_or(SimDuration::ZERO);
    {
        let mut stats = h.stats.lock();
        stats.flushes += 1;
        stats.submit_time += ctx.now().duration_since(t0);
        stats.idle_gap += gap;
        if group.len() < active {
            stats.partial_flushes += 1;
        }
    }
    // "Barrier to synchronize ACK to all processes" — arrival order, as in
    // the paper's joint flush, restricted to the covered ranks. The order
    // is assembled into a reusable scratch so steady-state flushes do not
    // allocate.
    ml.ack.clear();
    ml.ack
        .extend(str_waiting.iter().filter(|w| group.contains(w)).copied());
    if ctx.tracer().analysis_enabled() {
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::ProtoFlush {
                time: ctx.now(),
                gvm: h.endpoints.gvm.clone(),
                ranks: ml.ack.clone(),
            });
    }
    // Descriptor-passing batches the flush ACKs: the mq latency is charged
    // once per flush instead of once per rank, then every covered rank's
    // ACK is enqueued prepaid (message faults still apply per queue). This
    // is the "one mq round-trip per scheduler flush" half of the zero-copy
    // overhead cut.
    let batched = cfg.mem.zero_copy;
    if batched && !ml.ack.is_empty() {
        ranks[ml.ack[0]].resp.charge_latency(ctx);
    }
    for &rr in &ml.ack {
        let rank = &mut ranks[rr];
        let ack = Response::ack(rank.last_seq);
        rank.last_resp = Some(ResponseKind::Ack);
        let _ = if batched {
            rank.resp.send_prepaid(ctx, ack)
        } else {
            rank.resp.send(ctx, ack)
        };
    }
    str_waiting.retain(|w| !group.contains(w));
}

/// One transfer a copy wave moves: the member's rank and stream, its
/// payload this iteration and chunk count, the staging lease and device
/// address at either end, and whether the coalescing planner may fuse it.
struct WaveXfer<'a> {
    r: usize,
    stream: gv_gpu::StreamId,
    bytes: u64,
    k: u64,
    lease: &'a StagingLease,
    dev: DevicePtr,
    eligible: bool,
}

/// The flush executor: submit `wave`'s ranks iteration by iteration — all
/// members' H2D copies, then all their kernel launches, then all their D2H
/// drains. Each rank still sees H2D → kernels → D2H on its own in-order
/// stream, so functional outputs do not depend on how a group is split
/// into waves; only the submission schedule does. A one-rank wave submits
/// that rank's complete pipeline, the paper's per-rank schedule. A
/// multi-rank (coalescing) wave additionally:
///
/// * submits runs of members whose staging leases are adjacent in host
///   memory ([`CoalescePlan`]) as one fused DMA submission — the copy
///   engine sweeps the combined range and every sub-op after the first
///   elides the per-op setup latency. Each fused submission leaves an
///   [`AnalysisRecord::CoalesceOp`](gv_sim::AnalysisRecord::CoalesceOp)
///   manifest for the gv-analyze coalesce checker;
/// * batches a device's kernel launches into one submission charging the
///   host launch overhead once, when they span ≥ 2 ranks.
fn flush_waves(
    ctx: &mut Ctx,
    h: &GvmHandle,
    contexts: &[gv_cuda::CudaContext],
    ranks: &mut [RankResources],
    ml: &mut MemLayer,
    wave: &[usize],
) {
    // Output leases are acquired upfront, place-chained, so the D2H waves
    // see adjacent regions. Zero-copy needs none: results drain straight
    // into the rank's lease-backed segment.
    let mut chain: Option<u64> = None;
    for &r in wave {
        let rank = &mut ranks[r];
        let (bytes_out, functional) = (rank.task.bytes_out, rank.task.is_functional());
        if bytes_out > 0 && !ml.mem.zero_copy && rank.pinned_out.is_none() {
            let lease = ml
                .pool
                .acquire_at(ctx.tracer(), bytes_out, functional, rank.numa, chain);
            chain = Some(lease.place_addr() + lease.capacity());
            rank.pinned_out = Some(lease);
        } else if let Some(l) = rank.pinned_out.as_ref() {
            chain = Some(l.place_addr() + l.capacity());
        }
    }
    let max_iters = wave
        .iter()
        .map(|&r| ranks[r].task.iterations)
        .max()
        .unwrap_or(0);

    for it in 0..max_iters {
        copy_wave(ctx, h, contexts, ranks, ml, wave, it, true);

        // Kernel wave: per device, the rank count and the per-stream
        // launches in flush order; batched when ≥ 2 ranks share a device.
        let mut launches: Vec<(usize, usize, Vec<_>)> = Vec::new();
        for &r in wave {
            let rank = &ranks[r];
            if it >= rank.task.iterations {
                continue;
            }
            let gpu = rank.gpu.as_ref().expect("flushed rank allocated");
            let items: Vec<_> = gpu
                .kernels
                .iter()
                .map(|k| (rank.stream, k.clone()))
                .collect();
            match launches.iter_mut().find(|(d, _, _)| *d == rank.dev_idx) {
                Some((_, n, v)) => {
                    *n += 1;
                    v.extend(items);
                }
                None => launches.push((rank.dev_idx, 1, items)),
            }
        }
        for (dev_idx, nranks, items) in launches {
            let cc = &contexts[dev_idx];
            if nranks >= 2 && !items.is_empty() {
                cc.launch_batch(ctx, &items).expect("GVM batched launch");
                let mut stats = h.stats.lock();
                stats.batched_launch_waves += 1;
                stats.batched_launches += items.len() as u64;
            } else {
                for (stream, k) in items {
                    cc.launch(ctx, stream, k).expect("GVM launch");
                }
            }
        }

        copy_wave(ctx, h, contexts, ranks, ml, wave, it, false);
    }

    for &r in wave {
        let rank = &mut ranks[r];
        // A pre-issued upload covers this round's iteration 0 only.
        rank.h2d_preissued = false;
        // Steady mode pins this round's completion point now, before any
        // prefetched next-round H2D lands on the stream and moves its tail.
        if ml.mem.pipeline.steady {
            rank.round_tail = contexts[rank.dev_idx].stream_tail(rank.stream);
        }
    }
}

/// Submit iteration `it`'s copies in one direction (`h2d`) for every
/// `wave` member that has one. Per device, fusable runs ([`CoalescePlan`])
/// go down as one batched DMA submission; any other member's payload is a
/// planned [`SpanCopy`], except that a monolithic (k = 1) upload is one
/// plain copy with no chunk records.
#[allow(clippy::too_many_arguments)]
fn copy_wave(
    ctx: &mut Ctx,
    h: &GvmHandle,
    contexts: &[gv_cuda::CudaContext],
    ranks: &[RankResources],
    ml: &mut MemLayer,
    wave: &[usize],
    it: u32,
    h2d: bool,
) {
    let zc = ml.mem.zero_copy;
    let quota_on = h.config.quotas.is_some();
    let mut by_dev: Vec<(usize, Vec<WaveXfer>)> = Vec::new();
    for &r in wave {
        let rank = &ranks[r];
        let task = &rank.task;
        if it >= task.iterations {
            continue;
        }
        let (bytes, k) = if h2d {
            // `SND` may have queued iteration 0's upload already. The
            // first-round-only ablation re-uploads monolithically, as the
            // pre-steady-state flush did.
            if it == 0 && rank.h2d_preissued {
                continue;
            }
            let k = ml.mem.pipeline.first_round_only.then_some(1);
            (task.bytes_in_for_round(rank.rounds_done), k)
        } else {
            // Zero-copy drains results only on the final iteration: one
            // lease window serves both directions, and an intermediate D2H
            // would clobber the input region that later iterations'
            // re-loads still read. D2H never mutates device state, so
            // skipping the intermediate drains leaves the final output
            // bit-identical.
            if zc && it + 1 != task.iterations {
                continue;
            }
            (task.bytes_out, None)
        };
        if bytes == 0 {
            continue;
        }
        let k = k.unwrap_or_else(|| ml.chooser.choose(bytes, &ml.mem.pipeline));
        let base = rank.gpu.as_ref().expect("flushed rank allocated").dev_base;
        let (staged, dev) = if h2d {
            (&rank.pinned_in, base)
        } else {
            (&rank.pinned_out, base.add(task.d2h_offset))
        };
        // Zero-copy moves both directions through the rank's lease-backed
        // segment.
        let lease = if zc { &rank.zc_lease } else { staged };
        let x = WaveXfer {
            r,
            stream: rank.stream,
            bytes,
            k,
            lease: lease.as_ref().expect("flushed rank leased its staging"),
            dev,
            eligible: k == 1 && (!quota_on || rank.charged > 0),
        };
        match by_dev.iter_mut().find(|(d, _)| *d == rank.dev_idx) {
            Some((_, v)) => v.push(x),
            None => by_dev.push((rank.dev_idx, vec![x])),
        }
    }
    for (dev_idx, xfers) in &by_dev {
        let cc = &contexts[*dev_idx];
        let members: Vec<CoalesceMember> = xfers
            .iter()
            .map(|x| CoalesceMember::from_lease(x.r, x.bytes, x.lease, x.eligible))
            .collect();
        for run in &CoalescePlan::plan(&ml.mem.coalesce, &members).runs {
            if run.len() >= 2 {
                let fused = run.iter().map(|&i| &xfers[i]);
                let handles = if h2d {
                    let items: Vec<_> = fused
                        .map(|x| gv_cuda::BatchH2d {
                            stream: x.stream,
                            src: x.lease.buffer(),
                            src_offset: 0,
                            dst: x.dev,
                            bytes: x.bytes,
                        })
                        .collect();
                    cc.memcpy_h2d_async_batch(ctx, &items)
                } else {
                    let items: Vec<_> = fused
                        .map(|x| gv_cuda::BatchD2h {
                            stream: x.stream,
                            src: x.dev,
                            dst: x.lease.buffer(),
                            dst_offset: 0,
                            bytes: x.bytes,
                        })
                        .collect();
                    cc.memcpy_d2h_async_batch(ctx, &items)
                }
                .expect("GVM fused DMA submit");
                if ctx.tracer().analysis_enabled() {
                    record_coalesce_op(ctx, h, cc, h2d, run, &members, &handles);
                }
                let mut stats = h.stats.lock();
                stats.flush_dma_ops += run.len() as u64;
                stats.fused_dma_groups += 1;
                stats.fused_dma_subs += run.len() as u64;
                continue;
            }
            let x = &xfers[run[0]];
            if h2d && x.k == 1 {
                cc.memcpy_h2d_async(ctx, x.stream, x.lease.buffer(), x.dev, x.bytes)
                    .expect("GVM H2D submit");
                h.stats.lock().flush_dma_ops += 1;
                continue;
            }
            // Chunked re-loads release the shared H2D engine between
            // spans, so other ranks' copies interleave instead of waiting
            // out one monolithic transfer; chunked drains overlap the
            // compute still queued on other ranks' streams.
            let xfer = ml.plan(ctx.tracer(), x.r, x.bytes, Some(x.k));
            let n = SpanCopy {
                cc,
                stream: x.stream,
                rank: x.r,
                xfer,
                h2d,
                payload: x.bytes,
                lease: x.lease,
                dev: x.dev,
            }
            .submit(ctx, &ml.spans);
            let mut stats = h.stats.lock();
            stats.flush_dma_ops += n;
            if n > 1 {
                stats.chunked_transfers += 1;
                stats.chunks_submitted += n;
            }
        }
    }
}

/// Emit the fused submission's [`CoalesceOp`] manifest: member ranks in
/// submission order, their byte spans within the fused batch, the backing
/// pool buffers and lease generations, and the engine command id of each
/// sub-op (pairing with the per-device `CopyBegin`/`CopyEnd` labels).
///
/// [`CoalesceOp`]: gv_sim::AnalysisRecord::CoalesceOp
fn record_coalesce_op(
    ctx: &mut Ctx,
    h: &GvmHandle,
    cc: &gv_cuda::CudaContext,
    h2d: bool,
    run: &[usize],
    members: &[CoalesceMember],
    handles: &[gv_gpu::CommandHandle],
) {
    let mut offsets = Vec::with_capacity(run.len());
    let mut cursor = 0u64;
    for &i in run {
        offsets.push(cursor);
        cursor += members[i].bytes;
    }
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::CoalesceOp {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            device: cc.cuda().device().tracer_ordinal(),
            h2d,
            total: cursor,
            ranks: run.iter().map(|&i| members[i].rank as u64).collect(),
            offsets,
            lens: run.iter().map(|&i| members[i].bytes).collect(),
            bufs: run.iter().map(|&i| members[i].buf).collect(),
            gens: run.iter().map(|&i| members[i].generation).collect(),
            cmds: handles.iter().map(|cmd| cmd.id).collect(),
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `merge` carries every field: a value whose fields are all distinct
    /// and nonzero, merged into the default, comes back unchanged.
    #[test]
    fn merge_into_default_keeps_every_field() {
        let mut ids = 1..;
        let mut next = || ids.next().expect("unbounded");
        let full = GvmStats {
            snd_copies: next(),
            rcv_copies: next(),
            copy_time: SimDuration::from_nanos(next()),
            flushes: next(),
            submit_time: SimDuration::from_nanos(next()),
            stp_waits: next(),
            evictions: next(),
            naks: next(),
            dedup_hits: next(),
            partial_flushes: next(),
            queue_depth_max: next(),
            queue_depth_sum: next(),
            queue_depth_samples: next(),
            idle_gap: SimDuration::from_nanos(next()),
            pool_hits: next(),
            pool_misses: next(),
            pool_high_water_bytes: next(),
            devcache_hits: next(),
            devcache_misses: next(),
            chunked_transfers: next(),
            chunks_submitted: next(),
            steady_prefetches: next(),
            pool_released_buffers: next(),
            pool_released_bytes: next(),
            pool_over_cap: next(),
            pool_backpressure_waits: next(),
            quota_naks: next(),
            swap_outs: next(),
            swap_ins: next(),
            swapped_out_bytes: next(),
            swapped_in_bytes: next(),
            fused_dma_groups: next(),
            fused_dma_subs: next(),
            batched_launch_waves: next(),
            batched_launches: next(),
            flush_dma_ops: next(),
        };
        let mut merged = GvmStats::default();
        merged.merge(&full);
        assert_eq!(format!("{merged:?}"), format!("{full:?}"));
    }
}
