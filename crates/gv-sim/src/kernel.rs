//! The discrete-event engine.
//!
//! A [`Simulation`] owns a set of *processes*, each a stackful coroutine
//! (`coro` module) that runs on the thread calling
//! [`Simulation::run_until`]. That call is a plain loop: it switches into
//! the process the last scheduling step chose, and the process runs until it
//! performs a *yielding* operation (`hold`, `park`, `park_timeout`, or
//! returning). The yield stores its `YieldOp` in the shared state and
//! switches back; the loop applies it and takes the next step. A step that
//! picks the yielder again resumes it at once: two register switches, no
//! syscall. Because scheduling decisions are made from a FIFO run queue and
//! a `(time, sequence)`-ordered timer heap, runs are fully deterministic for
//! a fixed program.
//!
//! Non-yielding operations (`unpark`, `spawn`, channel pushes, …) mutate the
//! shared kernel state directly under a mutex; only one process (or the
//! loop between two of them) runs at any moment, so the lock is never
//! contended.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::coro::Coroutine;
use crate::oracle::{Candidate, DecisionKind, OracleHandle};
use crate::process::Ctx;
use crate::time::{SimDuration, SimTime};
use crate::trace::{AnalysisRecord, Tracer};

/// Identifier of a simulation process. Stable for the life of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Raw index (useful for dense per-process arrays in user code).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a `Pid` from a raw index — only for reloading dumped
    /// analysis records, where pids are opaque labels. A forged `Pid` has
    /// no meaning inside a live simulation.
    pub fn from_index(i: usize) -> Pid {
        Pid(i as u32)
    }
}

/// Why a parked/held process was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// First resume after spawn.
    Spawn,
    /// A `hold` elapsed or a `park_timeout` timed out.
    Timer,
    /// Another process called [`Ctx::unpark`].
    Unpark,
}

/// What blocking operation a parked process is stuck in. Set by the sync
/// primitives (channels, semaphores, barriers, gates, condition queues)
/// just before they park, so a deadlock report can say *why* each process
/// is blocked rather than just naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocked in a channel/message-queue receive.
    Recv,
    /// Blocked sending on a full bounded channel.
    Send,
    /// Blocked acquiring a semaphore permit.
    SemAcquire,
    /// Blocked at a barrier awaiting the remaining parties.
    BarrierWait,
    /// Blocked on a gate that has not opened.
    GateWait,
    /// Blocked on a condition queue awaiting a notify.
    CondWait,
    /// A bare `Ctx::park` with no recorded cause.
    Park,
}

impl WaitKind {
    /// Stable label used by the trace dump format and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            WaitKind::Recv => "recv",
            WaitKind::Send => "send",
            WaitKind::SemAcquire => "sem-acquire",
            WaitKind::BarrierWait => "barrier-wait",
            WaitKind::GateWait => "gate-wait",
            WaitKind::CondWait => "cond-wait",
            WaitKind::Park => "park",
        }
    }

    /// Inverse of [`label`](Self::label) (for reloading dumped traces).
    pub fn from_label(s: &str) -> Option<WaitKind> {
        Some(match s {
            "recv" => WaitKind::Recv,
            "send" => WaitKind::Send,
            "sem-acquire" => WaitKind::SemAcquire,
            "barrier-wait" => WaitKind::BarrierWait,
            "gate-wait" => WaitKind::GateWait,
            "cond-wait" => WaitKind::CondWait,
            "park" => WaitKind::Park,
            _ => return None,
        })
    }
}

/// Why a blocked process is waiting, and on whom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitCause {
    /// The blocking operation.
    pub kind: WaitKind,
    /// The resource being waited on (channel label, semaphore label, …).
    pub resource: String,
    /// Processes that could plausibly unblock the waiter (channel peers,
    /// semaphore holders). Wait-for cycle detection follows these edges.
    pub holders: Vec<Pid>,
}

/// One blocked process in a [`SimError::Deadlock`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedProcess {
    /// The blocked process.
    pub pid: Pid,
    /// Its name.
    pub name: String,
    /// Why it is blocked (`None` when it parked without recording a cause).
    pub cause: Option<WaitCause>,
    /// Rendered state of each holder in `cause` at detection time, e.g.
    /// `"gvm-0 (parked)"`. Parallel to `cause.holders`.
    pub holder_states: Vec<String>,
}

impl BlockedProcess {
    /// One-line description: `name: recv on '/gvm-req' (peers: gvm (parked))`.
    pub fn describe(&self) -> String {
        match &self.cause {
            None => format!("{}: parked (no wait cause recorded)", self.name),
            Some(c) => {
                let mut s = format!("{}: {} on '{}'", self.name, c.kind.label(), c.resource);
                if !self.holder_states.is_empty() {
                    s.push_str(&format!(" (peers: {})", self.holder_states.join(", ")));
                }
                s
            }
        }
    }
}

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No process is runnable, no timer is pending, yet processes are alive.
    Deadlock {
        /// The processes that are still blocked, with their wait causes.
        blocked: Vec<BlockedProcess>,
        /// A wait-for cycle among the blocked processes (first element
        /// repeated at the end), empty when the deadlock is acyclic (e.g. a
        /// lone process waiting on a message that never comes).
        cycle: Vec<Pid>,
    },
    /// A process panicked; the panic message is captured when it is a string.
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Panic payload, when representable as text.
        message: String,
    },
}

impl SimError {
    /// Names of the blocked processes for a deadlock (empty otherwise).
    pub fn blocked_names(&self) -> Vec<String> {
        match self {
            SimError::Deadlock { blocked, .. } => blocked.iter().map(|b| b.name.clone()).collect(),
            SimError::ProcessPanicked { .. } => Vec::new(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked, cycle } => {
                write!(f, "simulation deadlock; {} blocked: ", blocked.len())?;
                let descs: Vec<String> = blocked.iter().map(|b| b.describe()).collect();
                write!(f, "{}", descs.join("; "))?;
                if !cycle.is_empty() {
                    let names: Vec<&str> = cycle
                        .iter()
                        .map(|p| {
                            blocked
                                .iter()
                                .find(|b| b.pid == *p)
                                .map(|b| b.name.as_str())
                                .unwrap_or("?")
                        })
                        .collect();
                    write!(f, "; wait-for cycle: {}", names.join(" -> "))?;
                }
                Ok(())
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "process '{name}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Statistics describing a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Simulated time when the run ended.
    pub end_time: SimTime,
    /// Total processes spawned over the run.
    pub processes_spawned: usize,
    /// Number of scheduling steps: process resumes, counting a process that
    /// keeps running after its own yield as one.
    pub events_processed: u64,
    /// True when the run ended because every process finished (as opposed
    /// to hitting a `run_until` horizon).
    pub completed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// In the run queue (wake reason stored alongside).
    Ready,
    /// Currently executing.
    Running,
    /// Blocked awaiting an unpark or armed timer.
    Parked,
    /// Blocked in a `hold`; unparks are deferred via the token.
    Holding,
    /// Returned (or was terminated).
    Finished,
}

pub(crate) struct Slot {
    pub(crate) name: String,
    pub(crate) state: ProcState,
    /// Pending-unpark token (same semantics as `std::thread::park`).
    pub(crate) token: bool,
    /// Wake generation; bumped on every wake so stale timers are discarded.
    pub(crate) gen: u64,
    /// The process's coroutine: `None` while it runs (the engine loop
    /// holds it) and once it has returned.
    coro: Option<Coroutine>,
    /// Vector clock for happens-before analysis (maintained only while the
    /// tracer's analysis flag is on; empty otherwise).
    pub(crate) clock: VClock,
    /// Why this process is blocked, recorded by sync primitives before
    /// parking and cleared on wake. Read by deadlock reporting.
    pub(crate) wait: Option<WaitCause>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerEntry {
    time: SimTime,
    seq: u64,
    pid: Pid,
    gen: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) struct State {
    pub(crate) now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<TimerEntry>>,
    runnable: VecDeque<(Pid, WakeReason)>,
    pub(crate) slots: Vec<Slot>,
    live: usize,
    /// Scheduling steps taken (`Summary::events_processed`).
    events: u64,
    oracle: Option<OracleHandle>,
    /// The `run_until` horizon.
    limit: SimTime,
    /// The yield of the process that just switched back to the engine
    /// (`Exit` when it returned).
    pub(crate) yielded: Option<YieldOp>,
    /// What the engine hands the process it resumes: its wake reason, or
    /// `None` to make it unwind for teardown.
    pub(crate) resume: Option<WakeReason>,
}

/// What one scheduling step decided.
enum Step {
    /// Resume this process.
    Resume(Pid, WakeReason),
    /// The run is over: `Ok(completed)` or the error that ended it.
    Done(Result<bool, SimError>),
}

impl State {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    pub(crate) fn arm_timer(&mut self, pid: Pid, at: SimTime) {
        let gen = self.slots[pid.index()].gen;
        let seq = self.next_seq();
        self.heap.push(Reverse(TimerEntry {
            time: at,
            seq,
            pid,
            gen,
        }));
    }

    pub(crate) fn make_ready(&mut self, pid: Pid, reason: WakeReason) {
        let slot = &mut self.slots[pid.index()];
        slot.state = ProcState::Ready;
        slot.gen += 1;
        slot.wait = None;
        self.runnable.push_back((pid, reason));
    }

    pub(crate) fn set_wait_cause(&mut self, pid: Pid, cause: WaitCause) {
        self.slots[pid.index()].wait = Some(cause);
    }

    /// `unpark` semantics shared by `Ctx::unpark` and internal wakeups.
    pub(crate) fn unpark(&mut self, pid: Pid) {
        match self.slots[pid.index()].state {
            ProcState::Parked => self.make_ready(pid, WakeReason::Unpark),
            ProcState::Finished => {}
            // Running / Ready / Holding: remember the token for the next park.
            _ => self.slots[pid.index()].token = true,
        }
    }

    /// Happens-before edge `from → to`: tick `from`'s clock, then join it
    /// into `to`'s. Called on every unpark while analysis recording is on;
    /// safe for any target state because only one process runs at a time.
    pub(crate) fn propagate_clock(&mut self, from: Pid, to: Pid) {
        if from == to {
            return;
        }
        let snapshot = {
            let slot = &mut self.slots[from.index()];
            slot.clock.tick(from.index());
            slot.clock.clone()
        };
        self.slots[to.index()].clock.join(&snapshot);
    }
}

pub(crate) enum YieldOp {
    Hold(SimDuration),
    Park,
    ParkTimeout(SimDuration),
    Exit { panic_message: Option<String> },
}

/// Shared between the engine, every process `Ctx`, and all sync primitives.
pub struct KernelShared {
    pub(crate) state: Mutex<State>,
    pub(crate) tracer: Tracer,
}

impl KernelShared {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.state.lock().now
    }

    /// Switch into `pid`, handing it `resume`, and run it until it switches
    /// back. Returns its yield: `Exit` when it returned, `None` when it
    /// unwound for teardown. Frees its stack once it has returned.
    fn resume(&self, pid: Pid, resume: Option<WakeReason>) -> Option<YieldOp> {
        let mut coro = {
            let mut st = self.state.lock();
            st.resume = resume;
            st.slots[pid.index()]
                .coro
                .take()
                .expect("resuming a process with no coroutine")
        };
        let suspended = coro.resume();
        let mut st = self.state.lock();
        let op = st.yielded.take();
        if suspended {
            st.slots[pid.index()].coro = Some(coro);
        } else {
            // Unmap the finished stack outside the lock.
            drop(st);
            drop(coro);
        }
        op
    }

    /// Apply `pid`'s yield and take the next scheduling step. A panic in
    /// either (say, in an oracle) ends the run, blaming the yielder.
    fn after_yield(&self, pid: Pid, op: YieldOp) -> Step {
        let step = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut st = self.state.lock();
            match st.handle_yield(pid, op) {
                Some(err) => Step::Done(Err(err)),
                None => st.step(&self.tracer),
            }
        }));
        step.unwrap_or_else(|_| {
            let name = self.state.lock().slots[pid.index()].name.clone();
            Step::Done(Err(SimError::ProcessPanicked {
                name,
                message: "panicked in the scheduling step".to_string(),
            }))
        })
    }

    pub(crate) fn spawn_process<F>(
        self: &Arc<Self>,
        name: &str,
        start_at: Option<SimTime>,
        parent: Option<Pid>,
        f: F,
    ) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        install_teardown_panic_filter();
        let analysis = self.tracer.analysis_enabled();
        let shared = Arc::clone(self);
        let mut state = self.state.lock();
        let pid = Pid(state.slots.len() as u32);
        let coro = Coroutine::new(move |suspender| {
            let mut ctx = Ctx::new(shared, pid, suspender);
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
            let panic_message = match result {
                Ok(()) => None,
                // Orderly teardown: vanish without reporting.
                Err(payload) if payload.is::<Terminated>() => return,
                Err(payload) => Some(panic_message(&*payload)),
            };
            ctx.shared().state.lock().yielded = Some(YieldOp::Exit { panic_message });
        });
        // Spawn is a synchronization edge: the child inherits the parent's
        // (ticked) clock, so parent work before the spawn happens-before
        // everything the child does.
        let clock = match parent {
            Some(pp) if analysis => {
                let slot = &mut state.slots[pp.index()];
                slot.clock.tick(pp.index());
                slot.clock.clone()
            }
            _ => VClock::new(),
        };
        state.slots.push(Slot {
            name: name.to_string(),
            state: ProcState::Parked,
            token: false,
            gen: 0,
            coro: Some(coro),
            clock,
            wait: None,
        });
        state.live += 1;
        match start_at {
            None => state.make_ready(pid, WakeReason::Spawn),
            Some(t) => {
                let t = t.max(state.now);
                state.arm_timer(pid, t);
            }
        }
        pid
    }
}

/// Sentinel panic payload used to unwind suspended processes at teardown.
pub(crate) struct Terminated;

/// Keep the orderly [`Terminated`] unwind out of stderr: the default panic
/// hook would print a `Box<dyn Any>` backtrace for every process parked at
/// teardown (horizon stops, deadlock replays). Installed once, chaining to
/// the previous hook for every real panic.
fn install_teardown_panic_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Terminated>().is_none() {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A discrete-event simulation: spawn processes, then [`run`](Self::run).
pub struct Simulation {
    shared: Arc<KernelShared>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation at `t = 0`.
    pub fn new() -> Self {
        let shared = Arc::new(KernelShared {
            state: Mutex::new(State {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                runnable: VecDeque::new(),
                slots: Vec::new(),
                live: 0,
                events: 0,
                oracle: None,
                limit: SimTime::MAX,
                yielded: None,
                resume: None,
            }),
            tracer: Tracer::new(),
        });
        Simulation { shared }
    }

    /// Install a scheduling oracle. The oracle is consulted whenever the
    /// engine has more than one candidate — run-queue picks and same-time
    /// timer tie-breaks — and its choices fully determine the schedule.
    /// With no oracle installed the engine always takes the FIFO/arm-order
    /// default (index 0), preserving the historical behavior.
    pub fn set_oracle(&mut self, oracle: OracleHandle) {
        self.shared.state.lock().oracle = Some(oracle);
    }

    /// Handle to the shared kernel (used by sync primitives constructed
    /// outside any process).
    pub fn kernel(&self) -> Arc<KernelShared> {
        Arc::clone(&self.shared)
    }

    /// The trace recorder for this simulation (cheap to clone).
    pub fn tracer(&self) -> Tracer {
        self.shared.tracer.clone()
    }

    /// Spawn a root process that becomes runnable at `t = 0`.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, None, None, f)
    }

    /// Spawn a root process that first runs at simulated time `at`.
    pub fn spawn_at<F>(&mut self, at: SimTime, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, Some(at), None, f)
    }

    /// Run until all processes finish. Equivalent to
    /// `run_until(SimTime::MAX)` except that reaching the horizon is
    /// reported as completion.
    pub fn run(self) -> Result<Summary, SimError> {
        self.run_until(SimTime::MAX)
    }

    /// Run until all processes finish or simulated time would pass `limit`.
    ///
    /// The processes run as coroutines on the calling thread, one at a
    /// time: this loop switches into the process each scheduling step
    /// picks, and takes the next step when it switches back, until the run
    /// ends (completion, horizon, deadlock or panic). A panic in the very
    /// first step, before any process has run, propagates to the caller.
    pub fn run_until(self, limit: SimTime) -> Result<Summary, SimError> {
        let mut step = {
            let mut st = self.shared.state.lock();
            st.limit = limit;
            st.step(&self.shared.tracer)
        };
        let result = loop {
            match step {
                Step::Done(outcome) => break outcome,
                Step::Resume(pid, reason) => {
                    let op = self
                        .shared
                        .resume(pid, Some(reason))
                        .expect("a running process yields or exits");
                    step = self.shared.after_yield(pid, op);
                }
            }
        };

        if self.shared.tracer.analysis_enabled() {
            // Terminal record: tells whole-trace checkers (liveness) the
            // run actually ended here rather than being dumped mid-flight.
            let (completed, deadlocked) = match &result {
                Ok(c) => (*c, false),
                Err(SimError::Deadlock { .. }) => (false, true),
                Err(_) => (false, false),
            };
            let time = self.shared.state.lock().now;
            self.shared.tracer.record_analysis(AnalysisRecord::RunEnd {
                time,
                completed,
                deadlocked,
            });
        }
        self.terminate_all();
        result.map(|completed| {
            let st = self.shared.state.lock();
            Summary {
                end_time: st.now,
                processes_spawned: st.slots.len(),
                events_processed: st.events,
                completed,
            }
        })
    }

    /// Tear down every process still alive (horizon stops, deadlocks,
    /// panics, unrun simulations). A process that never ran just drops its
    /// closure. A suspended one is resumed with no wake reason, which
    /// unwinds it with the [`Terminated`] sentinel so it drops everything
    /// it holds; it is resumed again until it returns.
    fn terminate_all(&self) {
        let mut i = 0;
        loop {
            let mut st = self.shared.state.lock();
            let Some(slot) = st.slots.get_mut(i) else {
                break;
            };
            slot.state = ProcState::Finished;
            match &slot.coro {
                Some(coro) if coro.started() => {
                    drop(st);
                    // A yield during the unwind is ignored.
                    let _ = self.shared.resume(Pid(i as u32), None);
                }
                Some(_) => {
                    let unstarted = slot.coro.take();
                    drop(st);
                    drop(unstarted);
                    i += 1;
                }
                None => i += 1,
            }
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // A no-op after `run_until`; drops the closures of a simulation
        // that never ran or whose first step panicked.
        self.terminate_all();
    }
}

impl State {
    /// One scheduling step: pop the next process to resume from the run
    /// queue, advancing the clock to the next timer whenever it is empty.
    fn step(&mut self, tracer: &Tracer) -> Step {
        loop {
            let n = self.runnable.len();
            if n > 0 {
                // The FIFO front is the default; an installed oracle may
                // pick any ready process instead. Oracles never call back
                // into the kernel, so consulting one under the state lock
                // is fine.
                let idx = match &self.oracle {
                    Some(oracle) if n > 1 => {
                        let candidates = candidates_of(self, self.runnable.iter().copied());
                        oracle
                            .lock()
                            .choose(DecisionKind::Run, self.now, &candidates)
                            .min(n - 1)
                    }
                    _ => 0,
                };
                let (pid, reason) = self.runnable.remove(idx).expect("oracle index in range");
                self.slots[pid.index()].state = ProcState::Running;
                self.events += 1;
                return Step::Resume(pid, reason);
            }
            if let Some(outcome) = self.advance_time(tracer) {
                return Step::Done(outcome);
            }
        }
    }

    /// Apply one yield; returns an error to abort the run.
    fn handle_yield(&mut self, pid: Pid, op: YieldOp) -> Option<SimError> {
        match op {
            YieldOp::Hold(d) => {
                let at = self.now + d;
                self.slots[pid.index()].state = ProcState::Holding;
                self.arm_timer(pid, at);
            }
            YieldOp::Park => {
                let slot = &mut self.slots[pid.index()];
                if slot.token {
                    slot.token = false;
                    self.make_ready(pid, WakeReason::Unpark);
                } else {
                    slot.state = ProcState::Parked;
                }
            }
            YieldOp::ParkTimeout(d) => {
                let slot = &mut self.slots[pid.index()];
                if slot.token {
                    slot.token = false;
                    self.make_ready(pid, WakeReason::Unpark);
                } else {
                    slot.state = ProcState::Parked;
                    let at = self.now + d;
                    self.arm_timer(pid, at);
                }
            }
            YieldOp::Exit { panic_message } => {
                let slot = &mut self.slots[pid.index()];
                slot.state = ProcState::Finished;
                let name = slot.name.clone();
                self.live -= 1;
                if let Some(message) = panic_message {
                    return Some(SimError::ProcessPanicked { name, message });
                }
            }
        }
        None
    }

    /// Pop timers until a valid one is found, then advance the clock.
    /// Returns `Some(outcome)` when the run is over.
    ///
    /// Timers expiring at the same instant fire in **arm order** (their
    /// monotonic sequence numbers) by default; an installed oracle is
    /// consulted to tie-break instead, making same-time wake order an
    /// explorable scheduling decision rather than an accident of heap
    /// layout.
    fn advance_time(&mut self, tracer: &Tracer) -> Option<Result<bool, SimError>> {
        // Find the earliest valid timer, discarding stale entries.
        let front = loop {
            match self.heap.peek() {
                None => {
                    return if self.live == 0 {
                        Some(Ok(true))
                    } else {
                        Some(Err(self.deadlock_error(tracer)))
                    };
                }
                Some(Reverse(entry)) => {
                    let entry = *entry;
                    let valid = {
                        let slot = &self.slots[entry.pid.index()];
                        slot.gen == entry.gen
                            && matches!(slot.state, ProcState::Parked | ProcState::Holding)
                    };
                    if !valid {
                        self.heap.pop();
                        continue;
                    }
                    if entry.time > self.limit {
                        // Horizon reached with pending work.
                        self.now = self.limit;
                        return Some(Ok(false));
                    }
                    break entry;
                }
            }
        };
        self.heap.pop();
        let chosen = if let Some(oracle) = &self.oracle {
            // Collect every other valid timer due at the same instant so
            // the oracle can reorder the tie. Heap pops arrive in (time,
            // seq) order, so `ties` is sorted by arm order.
            let mut ties = vec![front];
            while let Some(Reverse(peek)) = self.heap.peek() {
                if peek.time != front.time {
                    break;
                }
                let entry = *peek;
                self.heap.pop();
                let slot = &self.slots[entry.pid.index()];
                if slot.gen == entry.gen
                    && matches!(slot.state, ProcState::Parked | ProcState::Holding)
                {
                    ties.push(entry);
                }
            }
            let idx = if ties.len() > 1 {
                let candidates =
                    candidates_of(self, ties.iter().map(|e| (e.pid, WakeReason::Timer)));
                oracle
                    .lock()
                    .choose(DecisionKind::Timer, front.time, &candidates)
                    .min(ties.len() - 1)
            } else {
                0
            };
            let chosen = ties.swap_remove(idx);
            for entry in ties {
                self.heap.push(Reverse(entry));
            }
            chosen
        } else {
            front
        };
        self.now = chosen.time;
        tracer.set_now_hint(chosen.time);
        self.make_ready(chosen.pid, WakeReason::Timer);
        None
    }

    /// Build the enriched deadlock report: per-process wait causes with
    /// holder states, a wait-for cycle if one exists, and (while analysis
    /// recording is on) matching trace records for the deadlock checker.
    fn deadlock_error(&self, tracer: &Tracer) -> SimError {
        let blocked: Vec<BlockedProcess> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state != ProcState::Finished)
            .map(|(i, s)| {
                let cause = s.wait.clone();
                let holder_states = cause
                    .as_ref()
                    .map(|c| {
                        c.holders
                            .iter()
                            .map(|h| {
                                let hs = &self.slots[h.index()];
                                let state = match hs.state {
                                    ProcState::Finished => "finished",
                                    ProcState::Parked => "parked",
                                    ProcState::Holding => "holding",
                                    ProcState::Ready | ProcState::Running => "runnable",
                                };
                                format!("{} ({state})", hs.name)
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                BlockedProcess {
                    pid: Pid::from_index(i),
                    name: s.name.clone(),
                    cause,
                    holder_states,
                }
            })
            .collect();
        let cycle = wait_cycle(&blocked);
        if tracer.analysis_enabled() {
            let time = self.now;
            for b in &blocked {
                let (kind, resource, holders) = match &b.cause {
                    Some(c) => (c.kind, c.resource.clone(), c.holders.clone()),
                    None => (WaitKind::Park, String::new(), Vec::new()),
                };
                tracer.record_analysis(AnalysisRecord::DeadlockWaiter {
                    time,
                    pid: b.pid,
                    process: b.name.clone(),
                    kind,
                    resource,
                    holders,
                });
            }
            tracer.record_analysis(AnalysisRecord::Deadlock {
                time,
                cycle: cycle.clone(),
            });
        }
        SimError::Deadlock { blocked, cycle }
    }
}

/// Snapshot oracle candidates for a set of wakeable processes.
fn candidates_of(st: &State, items: impl Iterator<Item = (Pid, WakeReason)>) -> Vec<Candidate> {
    items
        .map(|(pid, reason)| {
            let slot = &st.slots[pid.index()];
            Candidate {
                pid,
                reason,
                name: slot.name.clone(),
                clock: slot.clock.clone(),
            }
        })
        .collect()
}

/// Find a wait-for cycle among blocked processes, following each process's
/// `cause.holders` edges (restricted to processes that are themselves
/// blocked). Returns the cycle with its first node repeated at the end, or
/// empty when the wait graph is acyclic.
fn wait_cycle(blocked: &[BlockedProcess]) -> Vec<Pid> {
    let holders_of = |p: Pid| -> &[Pid] {
        blocked
            .iter()
            .find(|b| b.pid == p)
            .and_then(|b| b.cause.as_ref())
            .map(|c| c.holders.as_slice())
            .unwrap_or(&[])
    };
    let is_blocked = |p: Pid| blocked.iter().any(|b| b.pid == p);
    for start in blocked {
        // Bounded DFS from each blocked process; the graph is tiny.
        let mut stack = vec![(start.pid, vec![start.pid])];
        let mut visited: Vec<Pid> = Vec::new();
        while let Some((p, path)) = stack.pop() {
            for &h in holders_of(p) {
                if !is_blocked(h) {
                    continue;
                }
                if let Some(pos) = path.iter().position(|&q| q == h) {
                    let mut cycle: Vec<Pid> = path[pos..].to_vec();
                    cycle.push(h);
                    return cycle;
                }
                if !visited.contains(&h) {
                    visited.push(h);
                    let mut next = path.clone();
                    next.push(h);
                    stack.push((h, next));
                }
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_completes_at_zero() {
        let sim = Simulation::new();
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, SimTime::ZERO);
        assert!(s.completed);
        assert_eq!(s.processes_spawned, 0);
    }

    #[test]
    fn single_process_holds_advance_clock() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            ctx.hold(SimDuration::from_millis(5));
            ctx.hold(SimDuration::from_millis(7));
            assert_eq!(ctx.now(), SimTime::from_nanos(12_000_000));
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 12.0);
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let order = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        let (o1, o2) = (order.clone(), order.clone());
        sim.spawn("a", move |ctx| {
            ctx.hold(SimDuration::from_millis(2));
            // a wakes at t=2, after b's t=1 wake.
            assert_eq!(o1.fetch_add(1, Ordering::SeqCst), 1);
        });
        sim.spawn("b", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            assert_eq!(o2.fetch_add(1, Ordering::SeqCst), 0);
        });
        sim.run().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn park_unpark_roundtrip() {
        let mut sim = Simulation::new();
        let kernel = sim.kernel();
        let target = sim.spawn("sleeper", |ctx| {
            let reason = ctx.park();
            assert_eq!(reason, WakeReason::Unpark);
            assert_eq!(ctx.now().as_millis_f64(), 3.0);
        });
        let _ = kernel;
        sim.spawn("waker", move |ctx| {
            ctx.hold(SimDuration::from_millis(3));
            ctx.unpark(target);
        });
        sim.run().unwrap();
    }

    #[test]
    fn unpark_token_is_remembered() {
        let mut sim = Simulation::new();
        let target = sim.spawn("late-parker", |ctx| {
            ctx.hold(SimDuration::from_millis(10));
            // Unpark happened at t=1 while we were holding: token redeems now.
            assert_eq!(ctx.park(), WakeReason::Unpark);
            assert_eq!(ctx.now().as_millis_f64(), 10.0);
        });
        sim.spawn("early-waker", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.unpark(target);
        });
        sim.run().unwrap();
    }

    #[test]
    fn park_timeout_fires_timer() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            let reason = ctx.park_timeout(SimDuration::from_millis(4));
            assert_eq!(reason, WakeReason::Timer);
            assert_eq!(ctx.now().as_millis_f64(), 4.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn park_timeout_unparked_early_cancels_timer() {
        let mut sim = Simulation::new();
        let target = sim.spawn("p", |ctx| {
            let reason = ctx.park_timeout(SimDuration::from_millis(100));
            assert_eq!(reason, WakeReason::Unpark);
            assert_eq!(ctx.now().as_millis_f64(), 1.0);
            // The stale timer must not wake us again.
            ctx.hold(SimDuration::from_millis(500));
        });
        sim.spawn("w", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.unpark(target);
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 501.0);
    }

    #[test]
    fn deadlock_is_reported_with_names() {
        let mut sim = Simulation::new();
        sim.spawn("stuck", |ctx| {
            ctx.park();
        });
        match sim.run() {
            Err(err @ SimError::Deadlock { .. }) => {
                assert_eq!(err.blocked_names(), vec!["stuck"]);
                let SimError::Deadlock { blocked, cycle } = &err else {
                    unreachable!()
                };
                // A bare park records no cause and forms no cycle.
                assert!(blocked[0].cause.is_none());
                assert!(cycle.is_empty());
                assert!(err.to_string().contains("no wait cause recorded"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn same_time_timers_fire_in_arm_order_by_default() {
        // Regression for timer-wheel tie-breaking: both processes hold to
        // the same instant; the one that armed its timer first must wake
        // first. This holds with and without an (FIFO-default) oracle.
        use crate::oracle::{SchedOracle, ScriptOracle};
        for with_oracle in [false, true] {
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Simulation::new();
            if with_oracle {
                sim.set_oracle(ScriptOracle::recording().into_handle());
            }
            for name in ["first", "second"] {
                let order = order.clone();
                sim.spawn(name, move |ctx| {
                    ctx.hold(SimDuration::from_millis(1));
                    order.lock().push(ctx.name());
                });
            }
            sim.run().unwrap();
            assert_eq!(
                *order.lock(),
                vec!["first".to_string(), "second".to_string()],
                "with_oracle={with_oracle}"
            );
        }
    }

    #[test]
    fn oracle_can_flip_timer_tie_break() {
        use crate::oracle::{DecisionKind, SchedOracle, ScriptOracle};
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        // Decision 0 is the t=0 run-queue pick (both spawns ready);
        // decision 1 is the t=1ms timer tie — index 1 flips it.
        let oracle = ScriptOracle::replay(vec![0, 1]);
        let log = oracle.log();
        sim.set_oracle(oracle.into_handle());
        for name in ["first", "second"] {
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                ctx.hold(SimDuration::from_millis(1));
                order.lock().push(ctx.name());
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec!["second".to_string(), "first".to_string()]
        );
        let decisions = log.snapshot();
        assert!(decisions
            .iter()
            .any(|d| d.kind == DecisionKind::Timer && d.candidates.len() == 2));
    }

    #[test]
    fn oracle_reorders_run_queue() {
        use crate::oracle::{SchedOracle, ScriptOracle};
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        // Both spawns are ready at t=0; choosing index 1 runs "b" first.
        let oracle = ScriptOracle::replay(vec![1]);
        sim.set_oracle(oracle.into_handle());
        for name in ["a", "b"] {
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                order.lock().push(ctx.name());
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("bomb", |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            panic!("boom");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bomb");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new();
        sim.spawn("long", |ctx| {
            ctx.hold(SimDuration::from_secs(100));
        });
        let s = sim.run_until(SimTime::from_nanos(5_000)).unwrap();
        assert!(!s.completed);
        assert_eq!(s.end_time.as_nanos(), 5_000);
    }

    #[test]
    fn nested_spawn_runs_child() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |c| {
                c.hold(SimDuration::from_millis(2));
            });
            assert_eq!(child.index(), 1);
            ctx.hold(SimDuration::from_millis(5));
        });
        let s = sim.run().unwrap();
        assert_eq!(s.processes_spawned, 2);
        assert_eq!(s.end_time.as_millis_f64(), 5.0);
    }

    #[test]
    fn spawn_at_delays_first_run() {
        let mut sim = Simulation::new();
        sim.spawn_at(SimTime::from_nanos(7_000_000), "late", |ctx| {
            assert_eq!(ctx.now().as_millis_f64(), 7.0);
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 7.0);
    }

    #[test]
    fn yield_now_lets_peer_run_at_same_time() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let peer_ran = Arc::new(AtomicBool::new(false));
        let flag = peer_ran.clone();
        let mut sim = Simulation::new();
        sim.spawn("a", move |ctx| {
            ctx.yield_now();
            assert!(flag.load(Ordering::SeqCst));
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        let flag2 = peer_ran.clone();
        sim.spawn("b", move |_ctx| {
            flag2.store(true, Ordering::SeqCst);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dropping_unran_simulation_reaps_threads() {
        let mut sim = Simulation::new();
        sim.spawn("never-run", |ctx| {
            ctx.park();
        });
        drop(sim); // must not hang
    }

    #[test]
    fn lone_process_holds_resume_itself() {
        // Every hold is followed by the same process's own timer: each
        // step resumes the yielder, and each still counts as one step.
        let mut sim = Simulation::new();
        sim.spawn("solo", |ctx| {
            for _ in 0..1000 {
                ctx.hold(SimDuration::from_nanos(3));
            }
            ctx.yield_now();
        });
        let s = sim.run().unwrap();
        assert!(s.completed);
        assert_eq!(s.end_time.as_nanos(), 3_000);
        assert_eq!(s.events_processed, 1002);
    }

    #[test]
    fn exiting_process_hands_off_to_its_child() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let child_ran = Arc::new(AtomicBool::new(false));
        let flag = child_ran.clone();
        let mut sim = Simulation::new();
        sim.spawn("parent", move |ctx| {
            // The child is ready but runs only once the parent returns.
            ctx.spawn("child", move |c| {
                c.hold(SimDuration::from_millis(3));
                flag.store(true, Ordering::SeqCst);
            });
        });
        let s = sim.run().unwrap();
        assert!(child_ran.load(Ordering::SeqCst));
        assert!(s.completed);
        assert_eq!(s.processes_spawned, 2);
        assert_eq!(s.end_time.as_millis_f64(), 3.0);
        assert_eq!(s.events_processed, 3);
    }

    #[test]
    fn deadlock_cycle_found_after_processes_ran() {
        // The deadlock surfaces when the second process parks, not at the
        // start of the run: both hold first, then wait on each other.
        let mut sim = Simulation::new();
        let a = Pid(0);
        let b = Pid(1);
        sim.spawn("a", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.set_wait_cause(WaitKind::Recv, "from-b", vec![b]);
            ctx.park();
        });
        sim.spawn("b", move |ctx| {
            ctx.hold(SimDuration::from_millis(2));
            ctx.set_wait_cause(WaitKind::Recv, "from-a", vec![a]);
            ctx.park();
        });
        match sim.run() {
            Err(err @ SimError::Deadlock { .. }) => {
                assert_eq!(err.blocked_names(), vec!["a", "b"]);
                let SimError::Deadlock { cycle, .. } = &err else {
                    unreachable!()
                };
                assert_eq!(cycle, &vec![a, b, a]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn horizon_reached_mid_run_reaps_every_thread() {
        let token = Arc::new(());
        let mut sim = Simulation::new();
        for name in ["x", "y"] {
            let token = token.clone();
            sim.spawn(name, move |ctx| {
                let _token = token;
                loop {
                    ctx.hold(SimDuration::from_micros(1));
                }
            });
        }
        let s = sim.run_until(SimTime::from_nanos(5_500)).unwrap();
        assert!(!s.completed);
        assert_eq!(s.end_time.as_nanos(), 5_500);
        // Two spawn resumes plus two timer wakes per elapsed microsecond.
        assert_eq!(s.events_processed, 12);
        // Every process unwound and dropped its captures.
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn panic_after_a_hand_off_is_reported() {
        let token = Arc::new(());
        let mut sim = Simulation::new();
        let t = token.clone();
        sim.spawn("waiter", move |ctx| {
            let _token = t;
            ctx.spawn("bomb", |c| {
                c.hold(SimDuration::from_millis(1));
                panic!("boom after hand-off");
            });
            ctx.park();
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bomb");
                assert!(message.contains("boom after hand-off"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(Arc::strong_count(&token), 1);
    }

    /// Three processes with run-queue picks and same-instant timer ties.
    fn three_process_program(sim: &mut Simulation) {
        let c = sim.spawn("c", |ctx| {
            ctx.park();
            ctx.hold(SimDuration::from_millis(1));
        });
        sim.spawn("a", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.unpark(c);
            ctx.hold(SimDuration::from_millis(1));
        });
        sim.spawn("b", |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.yield_now();
            ctx.hold(SimDuration::from_millis(1));
        });
    }

    #[test]
    fn recording_oracle_log_is_pinned() {
        use crate::oracle::{SchedOracle, ScriptOracle};
        let oracle = ScriptOracle::recording();
        let log = oracle.log();
        let mut sim = Simulation::new();
        sim.set_oracle(oracle.into_handle());
        three_process_program(&mut sim);
        let s = sim.run().unwrap();
        let rendered: Vec<String> = log
            .snapshot()
            .iter()
            .map(|d| {
                let names: Vec<&str> = d.candidates.iter().map(|c| c.name.as_str()).collect();
                format!(
                    "{}@{}:{}->{}",
                    d.kind.label(),
                    d.time.as_nanos(),
                    names.join(","),
                    d.chosen
                )
            })
            .collect();
        assert_eq!(
            rendered,
            vec![
                "run@0:c,a,b->0",
                "run@0:a,b->0",
                "timer@1000000:a,b->0",
                "timer@2000000:a,c,b->0",
                "timer@2000000:c,b->0",
            ]
        );
        assert_eq!(s.events_processed, 10);
    }

    /// Panics on its `at`-th consultation; takes the FIFO default before.
    struct PanickingOracle {
        at: usize,
        seen: usize,
    }

    impl crate::oracle::SchedOracle for PanickingOracle {
        fn choose(&mut self, _: DecisionKind, _: SimTime, _: &[Candidate]) -> usize {
            assert_ne!(self.seen, self.at, "oracle gave up");
            self.seen += 1;
            0
        }
    }

    /// Run `sim` on a helper thread, failing the test if it hangs.
    fn run_with_watchdog(sim: Simulation) -> std::thread::Result<Result<Summary, SimError>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(|| sim.run())));
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_until never returned after a panic in the scheduling step")
    }

    #[test]
    fn panicking_oracle_at_an_exit_is_reported() {
        use crate::oracle::SchedOracle;
        // The only choice comes when the parent returns with both children
        // ready, so the step follows an exit, outside the process's own
        // panic catch.
        let mut sim = Simulation::new();
        sim.set_oracle(PanickingOracle { at: 0, seen: 0 }.into_handle());
        sim.spawn("parent", |ctx| {
            for name in ["k1", "k2"] {
                ctx.spawn(name, |c| c.hold(SimDuration::from_millis(1)));
            }
        });
        match run_with_watchdog(sim) {
            Ok(Err(SimError::ProcessPanicked { name, message })) => {
                assert_eq!(name, "parent");
                assert!(message.contains("scheduling step"), "{message}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
    }

    #[test]
    fn panicking_oracle_never_hangs_the_run() {
        use crate::oracle::SchedOracle;
        // Five decisions (see `recording_oracle_log_is_pinned`): the first
        // is taken before any process runs, the rest after a yield.
        for at in 0..5 {
            let mut sim = Simulation::new();
            sim.set_oracle(PanickingOracle { at, seen: 0 }.into_handle());
            three_process_program(&mut sim);
            match run_with_watchdog(sim) {
                Err(_) => assert_eq!(at, 0, "only the first step panics out"),
                Ok(Err(SimError::ProcessPanicked { .. })) => assert_ne!(at, 0),
                Ok(other) => panic!("decision {at}: expected a panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn events_processed_is_pinned() {
        // One channel ping-pong plus holds: a self-resume, a hand-off and
        // a timer wake each count as exactly one step.
        let mut sim = Simulation::new();
        let ch: crate::SimChannel<u32> = crate::SimChannel::unbounded();
        let ch2 = ch.clone();
        sim.spawn("producer", move |ctx| {
            for i in 0..50u32 {
                ch2.send(ctx, i).unwrap();
                ctx.hold(SimDuration::from_nanos(10));
            }
        });
        sim.spawn("consumer", move |ctx| {
            for _ in 0..50 {
                ch.recv(ctx).unwrap();
                ctx.hold(SimDuration::from_nanos(3));
            }
        });
        three_process_program(&mut sim);
        let s = sim.run().unwrap();
        assert_eq!(s.processes_spawned, 5);
        assert_eq!(s.end_time.as_nanos(), 2_000_000);
        assert_eq!(s.events_processed, 161);
    }

    /// Reset this thread's stack high-water mark; returns the live count.
    fn reset_stack_peak() -> usize {
        crate::coro::LIVE_STACKS.with(|c| {
            let (live, _) = c.get();
            c.set((live, live));
            live
        })
    }

    #[test]
    fn a_process_can_use_a_mebibyte_of_stack() {
        /// Recurse until the frames below `top` span 1 MiB, then hold
        /// with all of them live. Returns the bytes in use at the bottom.
        fn dive(ctx: &mut Ctx, top: usize) -> usize {
            let pad = std::hint::black_box([0u8; 1024]);
            let used = top - pad.as_ptr() as usize;
            let deepest = if used >= 1 << 20 {
                ctx.hold(SimDuration::from_nanos(1));
                used
            } else {
                dive(ctx, top)
            };
            std::hint::black_box(&pad);
            deepest
        }
        use std::sync::atomic::{AtomicUsize, Ordering};
        let deepest = Arc::new(AtomicUsize::new(0));
        let out = deepest.clone();
        let mut sim = Simulation::new();
        sim.spawn("deep", move |ctx| {
            let top = std::hint::black_box(0u8);
            out.store(dive(ctx, &top as *const u8 as usize), Ordering::SeqCst);
        });
        let s = sim.run().unwrap();
        assert!(s.completed);
        assert!(deepest.load(Ordering::SeqCst) >= 1 << 20);
    }

    #[test]
    fn ten_thousand_sequential_processes_keep_two_stacks_live() {
        let live = reset_stack_peak();
        let mut sim = Simulation::new();
        sim.spawn("spawner", |ctx| {
            for _ in 0..10_000 {
                ctx.spawn("short", |c| c.hold(SimDuration::from_nanos(1)));
                ctx.hold(SimDuration::from_nanos(2));
            }
        });
        let s = sim.run().unwrap();
        assert!(s.completed);
        assert_eq!(s.processes_spawned, 10_001);
        let (after, peak) = crate::coro::LIVE_STACKS.with(|c| c.get());
        assert_eq!(after, live, "every stack is unmapped by the end");
        // The spawner's stack and the one child alive at a time.
        assert_eq!(peak - live, 2);
    }

    #[test]
    fn horizon_stop_drops_the_captures_of_a_thousand_parked_processes() {
        let live = reset_stack_peak();
        let token = Arc::new(());
        let mut sim = Simulation::new();
        for i in 0..1000 {
            let token = token.clone();
            sim.spawn(&format!("parked-{i}"), move |ctx| {
                let _token = token;
                ctx.park();
            });
        }
        // Past the horizon: never started, so it never maps a stack.
        let t = token.clone();
        sim.spawn_at(SimTime::from_nanos(1_000_000), "late", move |_| drop(t));
        sim.spawn("ticker", |ctx| loop {
            ctx.hold(SimDuration::from_micros(1));
        });
        let s = sim.run_until(SimTime::from_nanos(5_500)).unwrap();
        assert!(!s.completed);
        assert_eq!(s.end_time.as_nanos(), 5_500);
        assert_eq!(Arc::strong_count(&token), 1);
        let (after, peak) = crate::coro::LIVE_STACKS.with(|c| c.get());
        assert_eq!(after, live);
        assert_eq!(peak - live, 1001);
    }
}
