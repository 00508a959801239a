//! Assembling and running one multi-process experiment.
//!
//! A scenario is: one simulated node (8 Xeon cores), one simulated Tesla
//! C2070, `n` SPMD processes each running one [`GpuTask`], executed either
//! conventionally ([`ExecutionMode::Direct`]) or through the GVM
//! ([`ExecutionMode::Virtualized`]). The result carries per-process phase
//! timestamps, device statistics, and the group turnaround the paper plots.

use std::sync::Arc;

use gv_cuda::CudaDevice;
use gv_gpu::{DeviceConfig, DeviceStats, GpuDevice};
use gv_ipc::{Node, NodeConfig};
use gv_kernels::GpuTask;
use gv_sim::{OracleHandle, SimDuration, SimError, SimTime, Simulation};
use gv_virt::{
    run_direct, Cluster, ClusterConfig, ClusterHandle, FaultPlan, Gvm, GvmConfig, GvmHandle,
    GvmStats, MemConfig, MemQuota, PlacePolicy, SchedPolicy, TaskRun, VgpuClient, VgpuRequest,
};
use parking_lot::Mutex;

use crate::timeline::Timeline;

/// How the SPMD group accesses the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Conventional sharing: per-process contexts, device-serialized.
    Direct,
    /// Through the GPU Virtualization Manager.
    Virtualized,
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Direct => write!(f, "no virtualization"),
            ExecutionMode::Virtualized => write!(f, "virtualization"),
        }
    }
}

/// Everything one experiment produced.
#[derive(Clone)]
pub struct ExperimentResult {
    /// Mode the group ran under.
    pub mode: ExecutionMode,
    /// Process count.
    pub nprocs: usize,
    /// Group turnaround in ms: `max(end) − min(start)` over all processes
    /// (the paper's process turnaround time).
    pub turnaround_ms: f64,
    /// Per-process phase timestamps.
    pub runs: Vec<TaskRun>,
    /// Device statistics at the end of the run.
    pub device: DeviceStats,
    /// GVM statistics (virtualized runs only).
    pub gvm: Option<GvmStats>,
    /// Functional outputs per rank (functional tasks only).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Engine timeline (only when the scenario enables tracing).
    pub timeline: Option<Timeline>,
    /// Raw trace handle (tracing or analysis scenarios only).
    pub tracer: Option<gv_sim::Tracer>,
    /// `gv-analyze` report over the run's trace (analysis scenarios only).
    pub analysis: Option<gv_analyze::Report>,
}

impl ExperimentResult {
    /// Mean of a per-process phase over all ranks.
    pub fn mean_phase(&self, f: impl Fn(&TaskRun) -> f64) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64
    }

    /// Mean per-rank turnaround (own end − own start), ms.
    pub fn mean_rank_ms(&self) -> f64 {
        self.mean_phase(|r| r.end.duration_since(r.start).as_millis_f64())
    }

    /// The GVM statistics of a virtualized run.
    pub fn gvm_stats(&self) -> &GvmStats {
        self.gvm.as_ref().expect("virtualized run has GVM stats")
    }

    /// Latest initialization completion relative to group start — the
    /// paper's `Tinit` (total for all processes).
    pub fn t_init_total(&self) -> f64 {
        let start = self
            .runs
            .iter()
            .map(|r| r.start)
            .min()
            .expect("non-empty group");
        self.runs
            .iter()
            .map(|r| r.init_done.duration_since(start).as_millis_f64())
            .fold(0.0, f64::max)
    }
}

/// Scenario parameters.
#[derive(Clone)]
pub struct Scenario {
    /// Device model (defaults to the paper-calibrated C2070).
    pub device: DeviceConfig,
    /// Node model (defaults to the paper's dual-Xeon node).
    pub node: NodeConfig,
    /// Record the trace and derive the engine timeline from it. Turns on
    /// the same recording as `analyze`, without running the checkers.
    pub trace: bool,
    /// Record analysis events (vector clocks, protocol receipts, device
    /// events) and run the `gv-analyze` checkers after the simulation.
    pub analyze: bool,
    /// GVM stream-dispatch policy (virtualized runs only).
    pub scheduler: SchedPolicy,
    /// Per-rank arrival skew: rank `r` begins its task `r × stagger`
    /// late — from group launch in Direct mode, from GVM-ready in
    /// Virtualized mode — modeling non-lockstep SPMD startup.
    pub stagger: SimDuration,
    /// Buffer-lifecycle configuration for the GVM (staging pool is always
    /// on; chunked pipelining off by default, which is bit-identical to
    /// serial staging). Ignored in Direct mode.
    pub mem: MemConfig,
    /// Compute rounds per rank (virtualized runs): each rank repeats the
    /// SND→STR→STP→RCV cycle this many times inside one REQ/RLS session,
    /// modeling iterative solvers. Direct mode always runs one round (every
    /// round recomputes the same output, so functional results stay
    /// bitwise-comparable across modes).
    pub rounds: u32,
    /// `Some(policy)`: route virtualized runs through the cluster
    /// placement front-end (a one-device cluster of the scenario's
    /// device) instead of installing the GVM directly. A one-device,
    /// one-wave cluster is bit-identical to the direct path — the
    /// differential tests pin that down per policy. Ignored in Direct
    /// mode.
    pub cluster: Option<PlacePolicy>,
    /// Scheduling oracle installed on the simulation before it runs
    /// (record, replay, or explore — see `gv_sim::oracle`). `None` keeps
    /// the engine's default FIFO/arm-order behavior.
    pub oracle: Option<OracleHandle>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            device: DeviceConfig::tesla_c2070_paper(),
            node: NodeConfig::dual_xeon_x5560(),
            trace: false,
            analyze: false,
            scheduler: SchedPolicy::JointFlush,
            stagger: SimDuration::ZERO,
            mem: MemConfig::default(),
            rounds: 1,
            cluster: None,
            oracle: None,
        }
    }
}

impl Scenario {
    /// A scenario with engine-timeline recording enabled.
    pub fn traced() -> Self {
        Scenario {
            trace: true,
            ..Self::default()
        }
    }

    /// A scenario with analysis recording and post-run checking enabled.
    pub fn analyzed() -> Self {
        Scenario {
            analyze: true,
            ..Self::default()
        }
    }

    /// `self` with the given GVM stream-dispatch policy.
    pub fn with_scheduler(self, scheduler: SchedPolicy) -> Self {
        Scenario { scheduler, ..self }
    }

    /// `self` with ranks arriving `stagger` apart.
    pub fn with_stagger(self, stagger: SimDuration) -> Self {
        Scenario { stagger, ..self }
    }

    /// `self` with the given buffer-lifecycle configuration.
    pub fn with_mem(self, mem: MemConfig) -> Self {
        Scenario { mem, ..self }
    }

    /// `self` with each rank running `rounds` compute rounds per session.
    pub fn with_rounds(self, rounds: u32) -> Self {
        assert!(rounds >= 1, "at least one round");
        Scenario { rounds, ..self }
    }

    /// `self` with virtualized runs routed through the one-device cluster
    /// placement front-end under `policy`.
    pub fn with_cluster(self, policy: PlacePolicy) -> Self {
        Scenario {
            cluster: Some(policy),
            ..self
        }
    }

    /// `self` with a scheduling oracle installed on the simulation (e.g.
    /// `ScriptOracle::recording()` to capture the decision trace of an
    /// experiment, or a replay script to pin one).
    pub fn with_oracle(self, oracle: OracleHandle) -> Self {
        Scenario {
            oracle: Some(oracle),
            ..self
        }
    }
}

impl Scenario {
    /// Run `tasks` (one per rank) under `mode`; returns the experiment
    /// result. Panics on simulation errors — experiments must be clean.
    pub fn run(&self, mode: ExecutionMode, tasks: Vec<GpuTask>) -> ExperimentResult {
        match self.try_run(mode, tasks) {
            Ok(result) => result,
            Err(e) => panic!("experiment simulation must complete: {e}"),
        }
    }

    /// Like [`run`](Self::run) but surfaces engine failures (deadlock,
    /// process panic) instead of panicking — the schedule-exploration path
    /// treats those as findings, not harness crashes.
    pub fn try_run(
        &self,
        mode: ExecutionMode,
        tasks: Vec<GpuTask>,
    ) -> Result<ExperimentResult, SimError> {
        let n = tasks.len();
        assert!(n >= 1, "at least one process");
        let mut sim = Simulation::new();
        let tracer = sim.tracer();
        tracer.set_analysis(self.trace || self.analyze);
        if let Some(oracle) = &self.oracle {
            sim.set_oracle(oracle.clone());
        }
        let device = GpuDevice::install(&mut sim, self.device.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(self.node.clone());

        type Collected = Arc<Mutex<Vec<(TaskRun, Option<Vec<u8>>)>>>;
        let collected: Collected = Arc::new(Mutex::new(Vec::new()));
        let mut cluster_handle: Option<ClusterHandle> = None;

        let gvm_handle: Option<GvmHandle> = match mode {
            ExecutionMode::Direct => {
                let finished = Arc::new(Mutex::new(0usize));
                for (rank, task) in tasks.iter().enumerate() {
                    let cuda = cuda.clone();
                    let task = task.clone();
                    let device = device.clone();
                    let collected = collected.clone();
                    let finished = finished.clone();
                    let arrival = arrival_delay(self.stagger, rank);
                    node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                        if !arrival.is_zero() {
                            ctx.hold(arrival);
                        }
                        let out = run_direct(ctx, &cuda, &task, rank);
                        collected.lock().push(out);
                        let mut f = finished.lock();
                        *f += 1;
                        if *f == n {
                            device.shutdown(ctx);
                        }
                    })
                    .expect("pin SPMD process");
                }
                None
            }
            ExecutionMode::Virtualized if self.cluster.is_some() => {
                let ccfg = ClusterConfig::new(self.cluster.unwrap())
                    .with_scheduler(self.scheduler.clone())
                    .with_mem(self.mem)
                    .with_rounds(self.rounds)
                    .with_stagger(self.stagger);
                let requests: Vec<VgpuRequest> = tasks
                    .into_iter()
                    .enumerate()
                    .map(|(rank, task)| VgpuRequest {
                        id: rank as u64,
                        tenant: 0,
                        gang: None,
                        quota: MemQuota::Unlimited,
                        task,
                    })
                    .collect();
                let handle =
                    Cluster::install(&mut sim, &node, std::slice::from_ref(&cuda), ccfg, requests)
                        .expect("one-device cluster placement must be feasible");
                cluster_handle = Some(handle);
                None
            }
            ExecutionMode::Virtualized => {
                let config = GvmConfig::new(n)
                    .with_scheduler(self.scheduler.clone())
                    .with_mem(self.mem);
                let handle = Gvm::install(&mut sim, &node, &cuda, config, tasks);
                let rounds = self.rounds;
                for rank in 0..n {
                    let handle = handle.clone();
                    let collected = collected.clone();
                    let arrival = arrival_delay(self.stagger, rank);
                    node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                        // Hold AFTER connect: connect blocks on the GVM ready
                        // gate (one context creation for the whole group), which
                        // would otherwise absorb any skew smaller than the boot
                        // time and de-stagger every arrival.
                        let client = VgpuClient::connect(ctx, &handle, rank);
                        if !arrival.is_zero() {
                            ctx.hold(arrival);
                        }
                        let out = client.run_rounds(ctx, rounds);
                        collected.lock().push(out);
                    })
                    .expect("pin SPMD process");
                }
                let h = handle.clone();
                let dev = device.clone();
                sim.spawn("supervisor", move |ctx| {
                    h.done.wait(ctx);
                    dev.shutdown(ctx);
                });
                Some(handle)
            }
        };

        sim.run()?;

        let (runs, outputs): (Vec<TaskRun>, Vec<Option<Vec<u8>>>) = match &cluster_handle {
            Some(ch) => ch
                .session_results()
                .into_iter()
                .map(|s| (s.run, s.output))
                .unzip(),
            None => {
                let mut pairs = Arc::try_unwrap(collected)
                    .map(|m| m.into_inner())
                    .unwrap_or_else(|arc| arc.lock().clone());
                pairs.sort_by_key(|(run, _)| run.rank);
                pairs.into_iter().unzip()
            }
        };
        assert_eq!(runs.len(), n, "every rank must report");

        let start = runs.iter().map(|r| r.start).min().expect("non-empty");
        let end = runs.iter().map(|r| r.end).max().expect("non-empty");
        Ok(ExperimentResult {
            mode,
            nprocs: n,
            turnaround_ms: end.duration_since(start).as_millis_f64(),
            runs,
            device: device.stats(),
            gvm: cluster_handle
                .map(|ch| ch.stats().gvm)
                .or_else(|| gvm_handle.map(|h| h.stats.lock().clone())),
            outputs,
            timeline: self
                .trace
                .then(|| Timeline::from_records(&tracer.analysis_snapshot())),
            analysis: self.analyze.then(|| gv_analyze::analyze_tracer(&tracer)),
            tracer: (self.trace || self.analyze).then_some(tracer),
        })
    }

    /// Convenience: run the same task on `n` ranks.
    pub fn run_uniform(&self, mode: ExecutionMode, task: &GpuTask, n: usize) -> ExperimentResult {
        self.run(mode, vec![task.clone(); n])
    }

    /// An A/B comparison: `task` on `n` virtualized ranks under mem
    /// config `a`, then under `b`, both traces checked when `analyze`.
    pub fn run_ab(
        &self,
        task: &GpuTask,
        n: usize,
        analyze: bool,
        [a, b]: [MemConfig; 2],
    ) -> AbRuns {
        let run = |mem| {
            Scenario {
                analyze,
                ..self.clone()
            }
            .with_mem(mem)
            .run_uniform(ExecutionMode::Virtualized, task, n)
        };
        let (a, b) = (run(a), run(b));
        let clean = match (&a.analysis, &b.analysis) {
            (Some(x), Some(y)) => Some(x.is_clean() && y.is_clean()),
            _ => None,
        };
        AbRuns { a, b, clean }
    }

    /// Run `tasks` once each through a GVM installed with `config`: the
    /// fault-tolerant, quota'd and ablated groups [`run`](Self::run) does
    /// not configure. Rank `r` connects, arrives `r × stagger` later, and
    /// runs its task to completion, to a NAK, or to the abort `plan`
    /// scripts for it; `plan`'s other faults are armed before the run.
    pub fn run_wave(&self, config: GvmConfig, tasks: Vec<GpuTask>, plan: &FaultPlan) -> Wave {
        let n = tasks.len();
        let mut sim = Simulation::new();
        let tracer = sim.tracer();
        tracer.set_analysis(self.analyze);
        let device = GpuDevice::install(&mut sim, self.device.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(self.node.clone());
        let handle = Gvm::install(&mut sim, &node, &cuda, config, tasks);
        plan.install(&handle, &device);

        type Spans = Arc<Mutex<Vec<(SimTime, SimTime, bool)>>>;
        let spans: Spans = Arc::new(Mutex::new(Vec::new()));
        for rank in 0..n {
            let (handle, spans) = (handle.clone(), spans.clone());
            let abort = plan.abort_stage(rank);
            let arrival = arrival_delay(self.stagger, rank);
            node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let mut client = VgpuClient::connect(ctx, &handle, rank);
                if !arrival.is_zero() {
                    ctx.hold(arrival);
                }
                if let Some(stage) = abort {
                    client.abort_at(stage);
                }
                let start = ctx.now();
                let admitted = client.try_run_task(ctx).is_ok();
                spans.lock().push((start, ctx.now(), admitted));
            })
            .expect("pin SPMD process");
        }
        let (h, dev) = (handle.clone(), device.clone());
        sim.spawn("supervisor", move |ctx| {
            h.done.wait(ctx);
            dev.shutdown(ctx);
        });
        sim.run().expect("GVM wave must complete");

        let spans = spans.lock();
        let start = spans.iter().map(|s| s.0).min().expect("non-empty");
        let end = spans.iter().map(|s| s.1).max().expect("non-empty");
        let stats = handle.stats.lock().clone();
        Wave {
            admitted: spans.iter().filter(|s| s.2).count(),
            group_ms: end.duration_since(start).as_millis_f64(),
            stats,
            clean: self.analyze.then(|| {
                let report = gv_analyze::analyze_tracer(&tracer);
                if !report.is_clean() {
                    eprintln!("gv-analyze diagnostics:\n{}", report.render());
                }
                report.is_clean()
            }),
        }
    }

    /// Post-init turnaround (`end − init_done`) of one direct
    /// single-process run of `task`: the raw-device baseline per-request
    /// overheads are measured against. Initialization is excluded; it is
    /// one-time, not per-request.
    pub fn direct_post_init_ms(&self, task: &GpuTask) -> f64 {
        self.run_uniform(ExecutionMode::Direct, task, 1)
            .mean_phase(|t| t.end.duration_since(t.init_done).as_millis_f64())
    }
}

/// What [`Scenario::run_wave`] measured.
pub struct Wave {
    /// Ranks whose task ran to completion (the rest were NAKed or aborted).
    pub admitted: usize,
    /// Group turnaround over every rank, finished or not (max end − min
    /// start), ms.
    pub group_ms: f64,
    /// GVM statistics at the end of the run.
    pub stats: GvmStats,
    /// `gv-analyze` verdict (`None` when analysis is off).
    pub clean: Option<bool>,
}

/// Both runs of [`Scenario::run_ab`].
pub struct AbRuns {
    /// The run under the first (baseline) mem config.
    pub a: ExperimentResult,
    /// The run under the second mem config.
    pub b: ExperimentResult,
    /// `gv-analyze` verdict over both traces (`None` when analysis is off).
    pub clean: Option<bool>,
}

/// Rank `r` arrives `r × stagger` after the group launch.
fn arrival_delay(stagger: SimDuration, rank: usize) -> SimDuration {
    SimDuration::from_nanos(stagger.as_nanos().saturating_mul(rank as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_kernels::{Benchmark, BenchmarkId};

    #[test]
    fn direct_scenario_collects_all_ranks() {
        let sc = Scenario::default();
        let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &sc.device, 200);
        let r = sc.run_uniform(ExecutionMode::Direct, &task, 3);
        assert_eq!(r.runs.len(), 3);
        assert_eq!(r.device.ctx_switches, 2);
        assert!(r.turnaround_ms > 0.0);
        // Ranks are ordered.
        assert_eq!(
            r.runs.iter().map(|x| x.rank).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn virtualized_scenario_collects_all_ranks() {
        let sc = Scenario::default();
        let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &sc.device, 200);
        let r = sc.run_uniform(ExecutionMode::Virtualized, &task, 3);
        assert_eq!(r.runs.len(), 3);
        assert_eq!(r.device.ctx_switches, 0);
        assert_eq!(r.gvm.as_ref().unwrap().flushes, 1);
    }

    #[test]
    fn tinit_total_is_max_over_ranks() {
        let sc = Scenario::default();
        let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &sc.device, 500);
        let r = sc.run_uniform(ExecutionMode::Direct, &task, 4);
        // Four serialized context creations ≈ 4 × 189.9 ms.
        let t = r.t_init_total();
        assert!((t - 4.0 * 189.923).abs() < 5.0, "Tinit(4) = {t}");
    }
}
