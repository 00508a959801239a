//! POSIX-like named message queues.
//!
//! The GVM uses two queues — requests in, responses out — to synchronize
//! with user processes ("by using streaming queues, resource contention
//! problems are prevented"). [`MqRegistry`] provides named creation and
//! opening; every send and receive charges the configured one-way latency,
//! and receives block (in simulated time) until a message arrives.

use std::collections::HashMap;
use std::sync::Arc;

use gv_sim::{Ctx, RecvTimeout, SimChannel, SimDuration};
use parking_lot::Mutex;

use crate::node::NodeConfig;

/// Armed deterministic faults for one named queue.
///
/// Fault indices count *sends over the queue's lifetime* (0-based), so a
/// schedule armed before the queue even exists fires deterministically once
/// traffic starts. Each armed fault is consumed when it fires; a fired
/// fault records a `fault`-category instant on the simulation tracer.
#[derive(Debug, Default)]
pub struct MqFaults {
    sends: u64,
    drop_at: Vec<u64>,
    dup_at: Vec<u64>,
    delay_at: Vec<(u64, SimDuration)>,
}

impl MqFaults {
    /// `(seq, drop, duplicate, delay)` decision for the next send.
    fn next_send(&mut self) -> (u64, bool, bool, Option<SimDuration>) {
        let seq = self.sends;
        self.sends += 1;
        let drop = match self.drop_at.iter().position(|&s| s == seq) {
            Some(i) => {
                self.drop_at.swap_remove(i);
                true
            }
            None => false,
        };
        let dup = match self.dup_at.iter().position(|&s| s == seq) {
            Some(i) => {
                self.dup_at.swap_remove(i);
                true
            }
            None => false,
        };
        let delay = match self.delay_at.iter().position(|&(s, _)| s == seq) {
            Some(i) => Some(self.delay_at.swap_remove(i).1),
            None => None,
        };
        (seq, drop, dup, delay)
    }
}

/// Errors from message-queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqError {
    /// `create` on an existing name.
    AlreadyExists(String),
    /// `open` on an unknown name.
    NotFound(String),
    /// Send on a closed queue.
    Closed,
}

impl std::fmt::Display for MqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MqError::AlreadyExists(n) => write!(f, "mq '{n}' already exists"),
            MqError::NotFound(n) => write!(f, "mq '{n}' not found"),
            MqError::Closed => write!(f, "mq is closed"),
        }
    }
}

impl std::error::Error for MqError {}

/// A handle to one named message queue carrying `T`.
pub struct MessageQueue<T> {
    name: String,
    chan: SimChannel<T>,
    node: Arc<NodeConfig>,
    faults: Arc<Mutex<MqFaults>>,
}

impl<T> Clone for MessageQueue<T> {
    fn clone(&self) -> Self {
        MessageQueue {
            name: self.name.clone(),
            chan: self.chan.clone(),
            node: Arc::clone(&self.node),
            faults: Arc::clone(&self.faults),
        }
    }
}

impl<T> MessageQueue<T> {
    /// Queue name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `mq_send`: blocking send (bounded queues block when full),
    /// charging one-way latency. Armed faults on this queue fire here:
    /// a dropped message silently vanishes after the latency charge, a
    /// delayed message charges the extra delay to the sender, a duplicated
    /// message is enqueued twice.
    pub fn send(&self, ctx: &mut Ctx, msg: T) -> Result<(), MqError>
    where
        T: Clone,
    {
        ctx.hold(self.node.mq_latency);
        let (seq, drop, dup, delay) = self.faults.lock().next_send();
        if drop {
            ctx.tracer()
                .fault(ctx.now(), format!("mq-drop:{}#{seq}", self.name));
            return Ok(());
        }
        if let Some(extra) = delay {
            ctx.tracer()
                .fault(ctx.now(), format!("mq-delay:{}#{seq}", self.name));
            ctx.hold(extra);
        }
        if dup {
            ctx.tracer()
                .fault(ctx.now(), format!("mq-dup:{}#{seq}", self.name));
            self.chan
                .send(ctx, msg.clone())
                .map_err(|_| MqError::Closed)?;
        }
        self.chan.send(ctx, msg).map_err(|_| MqError::Closed)
    }

    /// Send without charging the per-message one-way latency (the caller
    /// already paid it once for a whole batch via
    /// [`charge_latency`](Self::charge_latency)). Armed faults still fire
    /// exactly as for [`send`](Self::send) — batching changes the latency
    /// accounting, not the fault schedule.
    ///
    /// This is the zero-copy flush path: one mq round-trip is charged per
    /// scheduler flush instead of per covered rank.
    pub fn send_prepaid(&self, ctx: &mut Ctx, msg: T) -> Result<(), MqError>
    where
        T: Clone,
    {
        let (seq, drop, dup, delay) = self.faults.lock().next_send();
        if drop {
            ctx.tracer()
                .fault(ctx.now(), format!("mq-drop:{}#{seq}", self.name));
            return Ok(());
        }
        if let Some(extra) = delay {
            ctx.tracer()
                .fault(ctx.now(), format!("mq-delay:{}#{seq}", self.name));
            ctx.hold(extra);
        }
        if dup {
            ctx.tracer()
                .fault(ctx.now(), format!("mq-dup:{}#{seq}", self.name));
            self.chan
                .send(ctx, msg.clone())
                .map_err(|_| MqError::Closed)?;
        }
        self.chan.send(ctx, msg).map_err(|_| MqError::Closed)
    }

    /// Charge one one-way mq latency without moving a message — the batch
    /// prepayment matching [`send_prepaid`](Self::send_prepaid).
    pub fn charge_latency(&self, ctx: &mut Ctx) {
        ctx.hold(self.node.mq_latency);
    }

    /// `mq_receive`: blocking receive, charging one-way latency.
    /// `None` once the queue is closed and drained.
    pub fn recv(&self, ctx: &mut Ctx) -> Option<T> {
        let msg = self.chan.recv(ctx)?;
        ctx.hold(self.node.mq_latency);
        Some(msg)
    }

    /// Drain every currently queued message into `scratch` (cleared first),
    /// charging one-way latency per message exactly like repeated
    /// [`try_recv`](Self::try_recv) calls would. Reusing one scratch buffer
    /// across calls keeps the receive path allocation-free after warm-up;
    /// drained payloads are bitwise identical to the allocating path.
    pub fn drain_into(&self, ctx: &mut Ctx, scratch: &mut Vec<T>) {
        scratch.clear();
        while let Some(msg) = self.chan.try_recv(ctx) {
            ctx.hold(self.node.mq_latency);
            scratch.push(msg);
        }
    }

    /// Blocking receive bounded by `timeout` of simulated time, charging
    /// one-way latency when a message arrives.
    pub fn recv_timeout(&self, ctx: &mut Ctx, timeout: SimDuration) -> RecvTimeout<T> {
        match self.chan.recv_timeout(ctx, timeout) {
            RecvTimeout::Msg(msg) => {
                ctx.hold(self.node.mq_latency);
                RecvTimeout::Msg(msg)
            }
            other => other,
        }
    }

    /// Arm a message drop at this queue's `nth` lifetime send (0-based).
    pub fn arm_drop(&self, nth: u64) {
        self.faults.lock().drop_at.push(nth);
    }

    /// Arm a duplicated delivery at the `nth` lifetime send.
    pub fn arm_duplicate(&self, nth: u64) {
        self.faults.lock().dup_at.push(nth);
    }

    /// Arm an extra sender-side delay of `extra` at the `nth` lifetime send.
    pub fn arm_delay(&self, nth: u64, extra: SimDuration) {
        self.faults.lock().delay_at.push((nth, extra));
    }

    /// Non-blocking receive (no latency charged on miss).
    pub fn try_recv(&self, ctx: &mut Ctx) -> Option<T> {
        let msg = self.chan.try_recv(ctx)?;
        ctx.hold(self.node.mq_latency);
        Some(msg)
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.chan.is_empty()
    }

    /// Close the queue: further sends fail, receivers drain then see `None`.
    pub fn close(&self, ctx: &Ctx) {
        self.chan.close(ctx);
    }
}

/// A node-wide namespace of message queues carrying `T`.
pub struct MqRegistry<T> {
    node: Arc<NodeConfig>,
    queues: Arc<Mutex<HashMap<String, SimChannel<T>>>>,
    /// Fault schedules by queue name, independent of queue lifetime so a
    /// plan can be armed before the target queue is created.
    faults: Arc<Mutex<HashMap<String, Arc<Mutex<MqFaults>>>>>,
}

impl<T> Clone for MqRegistry<T> {
    fn clone(&self) -> Self {
        MqRegistry {
            node: Arc::clone(&self.node),
            queues: Arc::clone(&self.queues),
            faults: Arc::clone(&self.faults),
        }
    }
}

impl<T> MqRegistry<T> {
    /// An empty namespace using `node`'s latency model.
    pub fn new(node: &NodeConfig) -> Self {
        MqRegistry {
            node: Arc::new(node.clone()),
            queues: Arc::new(Mutex::new(HashMap::new())),
            faults: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The (shared, lazily created) fault schedule for queue `name`.
    pub fn fault_entry(&self, name: &str) -> Arc<Mutex<MqFaults>> {
        Arc::clone(self.faults.lock().entry(name.to_string()).or_default())
    }

    /// Arm a message drop at the `nth` lifetime send of queue `name`.
    pub fn arm_drop(&self, name: &str, nth: u64) {
        self.fault_entry(name).lock().drop_at.push(nth);
    }

    /// Arm a duplicated delivery at the `nth` lifetime send of `name`.
    pub fn arm_duplicate(&self, name: &str, nth: u64) {
        self.fault_entry(name).lock().dup_at.push(nth);
    }

    /// Arm an extra sender-side delay at the `nth` lifetime send of `name`.
    pub fn arm_delay(&self, name: &str, nth: u64, extra: SimDuration) {
        self.fault_entry(name).lock().delay_at.push((nth, extra));
    }

    /// `mq_open(O_CREAT|O_EXCL)` with optional depth bound.
    pub fn create(&self, name: &str, capacity: Option<usize>) -> Result<MessageQueue<T>, MqError> {
        let mut qs = self.queues.lock();
        if qs.contains_key(name) {
            return Err(MqError::AlreadyExists(name.to_string()));
        }
        let chan = match capacity {
            Some(c) => SimChannel::bounded(c),
            None => SimChannel::unbounded(),
        };
        // Deadlock reports name the queue, not the anonymous channel.
        chan.set_label(name);
        qs.insert(name.to_string(), chan.clone());
        drop(qs);
        Ok(MessageQueue {
            name: name.to_string(),
            chan,
            node: Arc::clone(&self.node),
            faults: self.fault_entry(name),
        })
    }

    /// `mq_open(0)`: open an existing queue.
    pub fn open(&self, name: &str) -> Result<MessageQueue<T>, MqError> {
        let chan = {
            let qs = self.queues.lock();
            qs.get(name)
                .ok_or_else(|| MqError::NotFound(name.to_string()))?
                .clone()
        };
        Ok(MessageQueue {
            name: name.to_string(),
            chan,
            node: Arc::clone(&self.node),
            faults: self.fault_entry(name),
        })
    }

    /// `mq_unlink`.
    pub fn unlink(&self, name: &str) -> Result<(), MqError> {
        self.queues
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| MqError::NotFound(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use gv_sim::{SimDuration, Simulation};

    #[test]
    fn send_recv_charges_latency_each_way() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u32> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/req", None).unwrap();
        let q2 = reg.open("/req").unwrap();
        sim.spawn("sender", move |ctx| {
            q.send(ctx, 42).unwrap();
            // one-way latency = 1 µs
            assert_eq!(ctx.now().as_nanos(), 1_000);
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(q2.recv(ctx), Some(42));
            // send latency + recv latency
            assert_eq!(ctx.now().as_nanos(), 2_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_blocks_until_send() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<&'static str> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/resp", None).unwrap();
        let tx = q.clone();
        sim.spawn("gvm", move |ctx| {
            ctx.hold(SimDuration::from_millis(5));
            tx.send(ctx, "ACK").unwrap();
        });
        sim.spawn("proc", move |ctx| {
            assert_eq!(q.recv(ctx), Some("ACK"));
            assert!(ctx.now().as_millis_f64() >= 5.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn namespace_semantics() {
        let reg: MqRegistry<u8> = MqRegistry::new(&NodeConfig::test_tiny());
        reg.create("/a", Some(4)).unwrap();
        assert!(matches!(
            reg.create("/a", None),
            Err(MqError::AlreadyExists(_))
        ));
        assert!(reg.open("/a").is_ok());
        reg.unlink("/a").unwrap();
        assert!(matches!(reg.open("/a"), Err(MqError::NotFound(_))));
    }

    #[test]
    fn closed_queue_rejects_sends() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u8> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/c", None).unwrap();
        sim.spawn("p", move |ctx| {
            q.close(ctx);
            assert_eq!(q.send(ctx, 1), Err(MqError::Closed));
            assert_eq!(q.recv(ctx), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn armed_drop_swallows_exactly_that_send() {
        let mut sim = Simulation::new();
        sim.tracer().set_analysis(true);
        let tracer = sim.tracer().clone();
        let reg: MqRegistry<u32> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/drop", None).unwrap();
        let rx = reg.open("/drop").unwrap();
        q.arm_drop(1);
        sim.spawn("sender", move |ctx| {
            for v in 0..3 {
                q.send(ctx, v).unwrap();
            }
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some(0));
            // message 1 was dropped on the floor
            assert_eq!(rx.recv(ctx), Some(2));
        });
        sim.run().unwrap();
        let faults = tracer.fault_events();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].1, "mq-drop:/drop#1");
    }

    #[test]
    fn armed_duplicate_delivers_twice() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u32> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/dup", None).unwrap();
        let rx = reg.open("/dup").unwrap();
        q.arm_duplicate(0);
        sim.spawn("sender", move |ctx| {
            q.send(ctx, 7).unwrap();
            q.send(ctx, 8).unwrap();
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some(7));
            assert_eq!(rx.recv(ctx), Some(7));
            assert_eq!(rx.recv(ctx), Some(8));
        });
        sim.run().unwrap();
    }

    #[test]
    fn armed_delay_charges_extra_sender_time() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u8> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/slow", None).unwrap();
        q.arm_delay(0, SimDuration::from_millis(3));
        sim.spawn("sender", move |ctx| {
            q.send(ctx, 1).unwrap();
            // mq latency (1 µs) + armed 3 ms delay
            assert_eq!(ctx.now().as_nanos(), 3_001_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn registry_arms_faults_before_queue_exists() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u32> = MqRegistry::new(&NodeConfig::test_tiny());
        // Armed before create(): the schedule must survive queue creation.
        reg.arm_drop("/later", 0);
        let q = reg.create("/later", None).unwrap();
        let rx = reg.open("/later").unwrap();
        sim.spawn("sender", move |ctx| {
            q.send(ctx, 1).unwrap();
            q.send(ctx, 2).unwrap();
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some(2));
        });
        sim.run().unwrap();
    }

    #[test]
    fn prepaid_send_skips_latency_but_faults_still_fire() {
        let mut sim = Simulation::new();
        sim.tracer().set_analysis(true);
        let tracer = sim.tracer().clone();
        let reg: MqRegistry<u32> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/pp", None).unwrap();
        let rx = reg.open("/pp").unwrap();
        q.arm_drop(1);
        sim.spawn("sender", move |ctx| {
            // One latency charge covers the whole batch.
            q.charge_latency(ctx);
            assert_eq!(ctx.now().as_nanos(), 1_000);
            for v in 0..3 {
                q.send_prepaid(ctx, v).unwrap();
            }
            // No further latency charged by the prepaid sends.
            assert_eq!(ctx.now().as_nanos(), 1_000);
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some(0));
            // The armed drop consumed message 1 exactly as with `send`.
            assert_eq!(rx.recv(ctx), Some(2));
        });
        sim.run().unwrap();
        let faults = tracer.fault_events();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].1, "mq-drop:/pp#1");
    }

    #[test]
    fn drain_into_reuses_scratch_and_charges_per_message() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u8> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/dr", None).unwrap();
        let rx = reg.open("/dr").unwrap();
        sim.spawn("sender", move |ctx| {
            for v in 10..13 {
                q.send(ctx, v).unwrap();
            }
        });
        sim.spawn("receiver", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            let mut scratch = vec![99u8; 8]; // stale contents must be cleared
            let t0 = ctx.now();
            rx.drain_into(ctx, &mut scratch);
            assert_eq!(scratch, vec![10, 11, 12]);
            // One recv latency per drained message, like try_recv.
            assert_eq!(ctx.now().duration_since(t0).as_nanos(), 3_000);
            rx.drain_into(ctx, &mut scratch);
            assert!(scratch.is_empty());
        });
        sim.run().unwrap();
    }

    proptest::proptest! {
        /// Draining through the reused scratch buffer yields payloads
        /// bitwise identical to the per-message allocating path
        /// (`try_recv` into a fresh `Vec`), in the same order and with the
        /// same latency accounting.
        #[test]
        fn drain_into_matches_allocating_path(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..32),
                0..16,
            ),
        ) {
            let reference = std::sync::Arc::new(Mutex::new(Vec::new()));
            let drained = std::sync::Arc::new(Mutex::new(Vec::new()));
            let times = std::sync::Arc::new(Mutex::new((0u64, 0u64)));

            let mut sim = Simulation::new();
            let reg: MqRegistry<Vec<u8>> = MqRegistry::new(&NodeConfig::test_tiny());
            let qa = reg.create("/alloc", None).unwrap();
            let ra = reg.open("/alloc").unwrap();
            let qb = reg.create("/scratch", None).unwrap();
            let rb = reg.open("/scratch").unwrap();
            let (pa, pb) = (payloads.clone(), payloads.clone());
            sim.spawn("sender", move |ctx| {
                for p in &pa {
                    qa.send(ctx, p.clone()).unwrap();
                }
                for p in &pb {
                    qb.send(ctx, p.clone()).unwrap();
                }
            });
            let (r1, r2, tm) = (reference.clone(), drained.clone(), times.clone());
            sim.spawn("receiver", move |ctx| {
                ctx.hold(SimDuration::from_millis(1));
                let t0 = ctx.now();
                let mut alloc = Vec::new(); // the allocating path
                while let Some(msg) = ra.try_recv(ctx) {
                    alloc.push(msg);
                }
                let t1 = ctx.now();
                let mut scratch = Vec::with_capacity(4);
                rb.drain_into(ctx, &mut scratch);
                let t2 = ctx.now();
                *r1.lock() = alloc;
                *r2.lock() = scratch;
                *tm.lock() = (
                    t1.duration_since(t0).as_nanos(),
                    t2.duration_since(t1).as_nanos(),
                );
            });
            sim.run().unwrap();
            proptest::prop_assert_eq!(&*reference.lock(), &payloads);
            proptest::prop_assert_eq!(&*drained.lock(), &*reference.lock());
            let (ta, tb) = *times.lock();
            proptest::prop_assert_eq!(ta, tb);
        }
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let mut sim = Simulation::new();
        let reg: MqRegistry<u32> = MqRegistry::new(&NodeConfig::test_tiny());
        let q = reg.create("/t", None).unwrap();
        let rx = reg.open("/t").unwrap();
        sim.spawn("sender", move |ctx| {
            ctx.hold(SimDuration::from_millis(10));
            q.send(ctx, 5).unwrap();
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(
                rx.recv_timeout(ctx, SimDuration::from_millis(2)),
                RecvTimeout::TimedOut
            );
            assert!(ctx.now().as_millis_f64() >= 2.0);
            assert_eq!(
                rx.recv_timeout(ctx, SimDuration::from_millis(20)),
                RecvTimeout::Msg(5)
            );
        });
        sim.run().unwrap();
    }
}
