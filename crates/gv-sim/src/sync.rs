//! Blocking synchronization primitives for simulation processes.
//!
//! All primitives here block in *simulated* time via [`Ctx::park`] and are
//! safe to share between processes (they are internally locked, and the
//! engine guarantees only one process runs at a time).
//!
//! Every blocking method takes `&mut Ctx` because parking yields control
//! to the next process. Wake-ups may be spurious from the primitive's point of view
//! (a process can hold at most one pending unpark token), so all wait loops
//! re-check their condition.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::kernel::{Pid, WaitKind};
use crate::process::Ctx;
use crate::trace::AnalysisRecord;

/// A counting semaphore with FIFO hand-off fairness: a released permit is
/// granted directly to the longest-waiting process, so late arrivals cannot
/// barge past waiters.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Mutex<SemState>>,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<Pid>,
    grants: Vec<Pid>,
    /// Processes currently holding a permit (acquired, not yet released).
    /// Deadlock reports name them as the peers a blocked acquirer waits on.
    holders: Vec<Pid>,
    /// Diagnostic label naming this semaphore in wait causes.
    label: String,
    /// Joined clock of every `release` so far; acquirers join it, modeling
    /// the internal lock of a real semaphore as a sync edge.
    release_clock: VClock,
}

impl Semaphore {
    /// Create a semaphore holding `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Self::labeled(permits, "sem")
    }

    /// Create a semaphore with a diagnostic label (used in deadlock
    /// reports, e.g. `"cuda-driver-lock"`).
    pub fn labeled(permits: usize, label: impl Into<String>) -> Self {
        Semaphore {
            inner: Arc::new(Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
                grants: Vec::new(),
                holders: Vec::new(),
                label: label.into(),
                release_clock: VClock::new(),
            })),
        }
    }

    /// Rename the semaphore's diagnostic label (shared by all clones).
    pub fn set_label(&self, label: impl Into<String>) {
        self.inner.lock().label = label.into();
    }

    /// Acquire one permit, blocking in simulated time.
    pub fn acquire(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        loop {
            let (label, holders) = {
                let mut st = self.inner.lock();
                if let Some(pos) = st.grants.iter().position(|&p| p == me) {
                    st.grants.swap_remove(pos);
                    st.holders.push(me);
                    ctx.clock_join(&st.release_clock);
                    return;
                }
                if st.permits > 0 && st.waiters.is_empty() {
                    st.permits -= 1;
                    st.holders.push(me);
                    ctx.clock_join(&st.release_clock);
                    return;
                }
                st.waiters.retain(|&p| p != me);
                st.waiters.push_back(me);
                (st.label.clone(), st.holders.clone())
            };
            ctx.set_wait_cause(WaitKind::SemAcquire, label, holders);
            ctx.park();
        }
    }

    /// Try to acquire without blocking; true on success.
    pub fn try_acquire(&self, ctx: &Ctx) -> bool {
        let me = ctx.pid();
        let mut st = self.inner.lock();
        if let Some(pos) = st.grants.iter().position(|&p| p == me) {
            st.grants.swap_remove(pos);
            st.holders.push(me);
            ctx.clock_join(&st.release_clock);
            return true;
        }
        if st.permits > 0 && st.waiters.is_empty() {
            st.permits -= 1;
            st.holders.push(me);
            ctx.clock_join(&st.release_clock);
            true
        } else {
            false
        }
    }

    /// Release one permit; hands it to the oldest waiter if any.
    pub fn release(&self, ctx: &Ctx) {
        let mut st = self.inner.lock();
        if let Some(c) = ctx.clock_stamp() {
            st.release_clock.join(&c);
        }
        let me = ctx.pid();
        if let Some(pos) = st.holders.iter().position(|&p| p == me) {
            st.holders.swap_remove(pos);
        }
        if let Some(p) = st.waiters.pop_front() {
            st.grants.push(p);
            drop(st);
            ctx.unpark(p);
        } else {
            st.permits += 1;
        }
    }

    /// Permits currently available (excluding in-flight grants).
    pub fn available(&self) -> usize {
        self.inner.lock().permits
    }
}

/// A condition queue (condition-variable analogue). Processes `wait` until
/// another process `notify`s; because wake-ups can be spurious, callers must
/// re-check their predicate in a loop.
#[derive(Clone)]
pub struct CondQueue {
    inner: Arc<Mutex<CondState>>,
}

struct CondState {
    waiters: VecDeque<Pid>,
    label: String,
}

impl Default for CondQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CondQueue {
    /// Create an empty condition queue.
    pub fn new() -> Self {
        Self::labeled("cond")
    }

    /// Create a condition queue with a diagnostic label. The label names
    /// the queue in deadlock wait causes and in the `NotifyLost` records
    /// the lost-wakeup checker correlates.
    pub fn labeled(label: impl Into<String>) -> Self {
        CondQueue {
            inner: Arc::new(Mutex::new(CondState {
                waiters: VecDeque::new(),
                label: label.into(),
            })),
        }
    }

    /// Rename the queue's diagnostic label (shared by all clones).
    pub fn set_label(&self, label: impl Into<String>) {
        self.inner.lock().label = label.into();
    }

    /// Park until notified (or spuriously woken — re-check predicates!).
    pub fn wait(&self, ctx: &mut Ctx) {
        let me = ctx.pid();
        let label = {
            let mut st = self.inner.lock();
            st.waiters.retain(|&p| p != me);
            st.waiters.push_back(me);
            st.label.clone()
        };
        ctx.set_wait_cause(WaitKind::CondWait, label, Vec::new());
        ctx.park();
    }

    /// Wake the oldest waiter, if any. A notify that finds no waiter is
    /// recorded (while analysis is on) as a potential lost wakeup — benign
    /// unless someone later blocks forever waiting on this queue.
    pub fn notify_one(&self, ctx: &Ctx) {
        let (target, label) = {
            let mut st = self.inner.lock();
            let t = st.waiters.pop_front();
            (t, st.label.clone())
        };
        match target {
            Some(p) => ctx.unpark(p),
            None => {
                ctx.tracer().record_analysis(AnalysisRecord::NotifyLost {
                    time: ctx.now(),
                    resource: label,
                });
            }
        }
    }

    /// Wake every current waiter.
    pub fn notify_all(&self, ctx: &Ctx) {
        let targets: Vec<Pid> = {
            let mut st = self.inner.lock();
            st.waiters.drain(..).collect()
        };
        for p in targets {
            ctx.unpark(p);
        }
    }

    /// Number of processes currently registered as waiting.
    pub fn waiter_count(&self) -> usize {
        self.inner.lock().waiters.len()
    }
}

/// A cyclic, sense-reversing barrier for a fixed party count — the paper's
/// GVM uses exactly this to synchronize `STR` requests from all SPMD
/// processes before flushing the CUDA streams together.
#[derive(Clone)]
pub struct SimBarrier {
    inner: Arc<Mutex<BarrierState>>,
    parties: usize,
}

struct BarrierState {
    count: usize,
    sense: bool,
    waiters: Vec<Pid>,
    label: String,
    /// Joined clocks of the current generation's arrivals. Unpark edges
    /// alone would miss the earlier-arrival → leader direction; the barrier
    /// is all-to-all, so every releasee joins the whole generation's clock.
    arrival_clock: VClock,
    /// The previous generation's merged clock, joined by released waiters.
    release_clock: VClock,
}

impl SimBarrier {
    /// A barrier for `parties` processes (`parties >= 1`).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "barrier needs at least one party");
        SimBarrier {
            inner: Arc::new(Mutex::new(BarrierState {
                count: 0,
                sense: false,
                waiters: Vec::new(),
                label: "barrier".to_string(),
                arrival_clock: VClock::new(),
                release_clock: VClock::new(),
            })),
            parties,
        }
    }

    /// Rename the barrier's diagnostic label (shared by all clones).
    pub fn set_label(&self, label: impl Into<String>) {
        self.inner.lock().label = label.into();
    }

    /// Number of parties the barrier synchronizes.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Block until all parties arrive. Returns `true` for exactly one
    /// process per generation (the "leader": the last to arrive).
    pub fn wait(&self, ctx: &mut Ctx) -> bool {
        let my_sense;
        let label;
        {
            let mut st = self.inner.lock();
            st.count += 1;
            if let Some(c) = ctx.clock_stamp() {
                st.arrival_clock.join(&c);
            }
            if st.count == self.parties {
                st.count = 0;
                st.sense = !st.sense;
                // All-to-all release: everyone (leader included) observes
                // the merged clock of every arrival in this generation.
                st.release_clock = std::mem::take(&mut st.arrival_clock);
                let release = st.release_clock.clone();
                let wake: Vec<Pid> = st.waiters.drain(..).collect();
                drop(st);
                ctx.clock_join(&release);
                for p in wake {
                    ctx.unpark(p);
                }
                return true;
            }
            my_sense = st.sense;
            label = st.label.clone();
            st.waiters.push(ctx.pid());
        }
        loop {
            ctx.set_wait_cause(WaitKind::BarrierWait, label.clone(), Vec::new());
            ctx.park();
            let st = self.inner.lock();
            if st.sense != my_sense {
                ctx.clock_join(&st.release_clock);
                return false;
            }
        }
    }

    /// How many parties have arrived in the current generation.
    pub fn arrived(&self) -> usize {
        self.inner.lock().count
    }
}

/// A one-shot gate (latch): starts closed, opens once, stays open.
#[derive(Clone)]
pub struct Gate {
    inner: Arc<Mutex<GateState>>,
}

struct GateState {
    open: bool,
    waiters: Vec<Pid>,
    label: String,
    /// The opener's clock; joined by waiters (including ones that arrive
    /// after the gate already opened, where no unpark edge exists).
    open_clock: VClock,
}

impl Default for Gate {
    fn default() -> Self {
        Self::new()
    }
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Self {
        Gate {
            inner: Arc::new(Mutex::new(GateState {
                open: false,
                waiters: Vec::new(),
                label: "gate".to_string(),
                open_clock: VClock::new(),
            })),
        }
    }

    /// Rename the gate's diagnostic label (shared by all clones).
    pub fn set_label(&self, label: impl Into<String>) {
        self.inner.lock().label = label.into();
    }

    /// Is the gate open?
    pub fn is_open(&self) -> bool {
        self.inner.lock().open
    }

    /// Open the gate, waking all waiters. Idempotent.
    pub fn open(&self, ctx: &Ctx) {
        let wake: Vec<Pid> = {
            let mut st = self.inner.lock();
            if st.open {
                return;
            }
            st.open = true;
            if let Some(c) = ctx.clock_stamp() {
                st.open_clock.join(&c);
            }
            st.waiters.drain(..).collect()
        };
        for p in wake {
            ctx.unpark(p);
        }
    }

    /// Block until the gate opens (returns immediately if already open).
    pub fn wait(&self, ctx: &mut Ctx) {
        loop {
            let label = {
                let mut st = self.inner.lock();
                if st.open {
                    ctx.clock_join(&st.open_clock);
                    return;
                }
                let me = ctx.pid();
                st.waiters.retain(|&p| p != me);
                st.waiters.push(me);
                st.label.clone()
            };
            ctx.set_wait_cause(WaitKind::GateWait, label, Vec::new());
            ctx.park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn semaphore_serializes_critical_section() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(1);
        let in_cs = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let sem = sem.clone();
            let in_cs = in_cs.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                sem.acquire(ctx);
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                ctx.hold(SimDuration::from_millis(10));
                in_cs.fetch_sub(1, Ordering::SeqCst);
                sem.release(ctx);
            });
        }
        let s = sim.run().unwrap();
        // Four 10ms critical sections fully serialized.
        assert_eq!(s.end_time.as_millis_f64(), 40.0);
    }

    #[test]
    fn semaphore_capacity_two_halves_makespan() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(2);
        for i in 0..4 {
            let sem = sem.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                sem.acquire(ctx);
                ctx.hold(SimDuration::from_millis(10));
                sem.release(ctx);
            });
        }
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 20.0);
    }

    #[test]
    fn semaphore_is_fifo_fair() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let sem = sem.clone();
            let order = order.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                // Stagger arrivals: p0 at 0, p1 at 1ms, p2 at 2ms.
                ctx.hold(SimDuration::from_millis(i));
                sem.acquire(ctx);
                order.lock().push(i);
                ctx.hold(SimDuration::from_millis(10));
                sem.release(ctx);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn try_acquire_does_not_block() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(1);
        sim.spawn("p", move |ctx| {
            assert!(sem.try_acquire(ctx));
            assert!(!sem.try_acquire(ctx));
            sem.release(ctx);
            assert!(sem.try_acquire(ctx));
            sem.release(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut sim = Simulation::new();
        let bar = SimBarrier::new(3);
        let leaders = Arc::new(AtomicUsize::new(0));
        for i in 0..3u64 {
            let bar = bar.clone();
            let leaders = leaders.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.hold(SimDuration::from_millis(i * 5));
                if bar.wait(ctx) {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
                // Everyone resumes at the last arrival time (t = 10ms).
                assert_eq!(ctx.now().as_millis_f64(), 10.0);
            });
        }
        sim.run().unwrap();
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn barrier_is_cyclic() {
        let mut sim = Simulation::new();
        let bar = SimBarrier::new(2);
        for i in 0..2u64 {
            let bar = bar.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                for round in 0..3u64 {
                    ctx.hold(SimDuration::from_millis(i + 1));
                    bar.wait(ctx);
                    let _ = round;
                }
            });
        }
        // Each round gated by the slower (2ms) process: 3 rounds → 6ms.
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 6.0);
    }

    #[test]
    fn gate_wakes_all_waiters_and_stays_open() {
        let mut sim = Simulation::new();
        let gate = Gate::new();
        for i in 0..3 {
            let gate = gate.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                gate.wait(ctx);
                assert_eq!(ctx.now().as_millis_f64(), 5.0);
            });
        }
        let g2 = gate.clone();
        sim.spawn("opener", move |ctx| {
            ctx.hold(SimDuration::from_millis(5));
            g2.open(ctx);
        });
        let gate3 = gate.clone();
        sim.spawn("late", move |ctx| {
            ctx.hold(SimDuration::from_millis(20));
            gate3.wait(ctx); // already open: returns immediately
            assert_eq!(ctx.now().as_millis_f64(), 20.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn condqueue_notify_one_wakes_in_fifo_order() {
        let mut sim = Simulation::new();
        let cq = CondQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u64 {
            let cq = cq.clone();
            let order = order.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.hold(SimDuration::from_millis(i));
                cq.wait(ctx);
                order.lock().push(i);
            });
        }
        let cq2 = cq.clone();
        sim.spawn("n", move |ctx| {
            ctx.hold(SimDuration::from_millis(10));
            cq2.notify_one(ctx);
            ctx.hold(SimDuration::from_millis(10));
            cq2.notify_one(ctx);
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec![0, 1]);
    }
}
