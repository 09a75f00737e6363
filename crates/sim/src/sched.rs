//! The simulator core: event queue, dispatch loop, and failure injection.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, AnyActor, Context, TimerHandle};
use crate::idmap::IdMap;
use crate::net::{Delivery, Network};
use crate::trace::{SpanContext, Tracer};
use crate::{counter, Metrics, NodeId, SimDuration, SimTime};

enum EventKind {
    Start(NodeId),
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Box<dyn Any>,
        /// Trace context travelling with the message, if the sender opened
        /// one; surfaces as [`Context::incoming_span`] on delivery.
        span: Option<SpanContext>,
    },
    Timer {
        node: NodeId,
        token: u64,
        /// Incarnation of the node when the timer was armed; a timer from
        /// a previous incarnation (pre-crash) must not fire into the
        /// restarted process.
        incarnation: u64,
        /// The timer's own queue sequence number; only the
        /// [`TimerHandle`] carrying it can cancel this timer.
        seq: u64,
    },
    /// What a cancelled timer turns into. Its key is still queued and
    /// keeps its place: popping it advances the clock like any other
    /// event, and runs nothing.
    Cancelled,
}

/// One cell of the event store.
enum Slot {
    /// Unused; `next` chains the free list.
    Free {
        next: Option<u32>,
    },
    Queued(EventKind),
}

/// What the queue orders: `(at, seq, slot)`, earliest first, ties in
/// insertion order. `seq` is unique, so `slot` never decides.
type Key = Reverse<(SimTime, u64, u32)>;

/// The mutable guts of a simulation, split from the node table so a
/// dispatched actor can borrow both itself and this state.
pub(crate) struct SimInner {
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: Tracer,
    /// Span context of the message currently being dispatched, if any.
    pub(crate) incoming_span: Option<SpanContext>,
    pub(crate) net: Network,
    /// One key per queued event, cancelled timers included.
    queue: BinaryHeap<Key>,
    /// Event payloads, found by the `slot` of their key. A slot is freed
    /// when its key pops and at no other time, so a queued key always
    /// owns its slot.
    slots: Vec<Slot>,
    /// Head of the free list through `slots`.
    free: Option<u32>,
    seq: u64,
    /// Per ordered `(src, dst)` pair: the latest delivery time scheduled so
    /// far. Messages between the same pair deliver FIFO, as over a TCP
    /// session — jitter never reorders a connection.
    last_delivery: IdMap<(NodeId, NodeId), SimTime>,
}

impl SimInner {
    /// Queues `kind` at `at` under the next sequence number and returns
    /// the slot that holds it.
    fn push(&mut self, at: SimTime, kind: EventKind) -> u32 {
        let slot = match self.free {
            Some(slot) => {
                let cell = std::mem::replace(&mut self.slots[slot as usize], Slot::Queued(kind));
                let Slot::Free { next } = cell else {
                    unreachable!("free list points at a slot in use");
                };
                self.free = next;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX events queued at once");
                self.slots.push(Slot::Queued(kind));
                slot
            }
        };
        self.queue.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
        slot
    }

    /// Pops the earliest key, advances the clock to it and frees its slot.
    fn pop(&mut self) -> Option<EventKind> {
        let Reverse((at, _, slot)) = self.queue.pop()?;
        self.now = at;
        let next = self.free.replace(slot);
        match std::mem::replace(&mut self.slots[slot as usize], Slot::Free { next }) {
            Slot::Queued(kind) => Some(kind),
            Slot::Free { .. } => unreachable!("queued key points at a free slot"),
        }
    }

    /// Time of the earliest queued event.
    fn next_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse((at, ..))| *at)
    }

    pub(crate) fn send_from(&mut self, from: NodeId, to: NodeId, msg: Box<dyn Any>) {
        self.send_from_spanned(from, to, msg, SimDuration::ZERO, None);
    }

    pub(crate) fn send_from_after(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Box<dyn Any>,
        extra: SimDuration,
    ) {
        self.send_from_spanned(from, to, msg, extra, None);
    }

    pub(crate) fn send_from_spanned(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Box<dyn Any>,
        extra: SimDuration,
        span: Option<SpanContext>,
    ) {
        match self.net.route(from, to, &mut self.rng) {
            Delivery::After(lat) => {
                let mut at = self.now + lat + extra;
                // FIFO per connection: never deliver before an earlier
                // message on the same (src, dst) pair.
                match self.last_delivery.entry((from, to)) {
                    Entry::Occupied(mut last) => {
                        let last = last.get_mut();
                        if at <= *last {
                            at = *last + SimDuration::from_micros(1);
                        }
                        *last = at;
                    }
                    Entry::Vacant(first) => {
                        first.insert(at);
                    }
                }
                self.push(
                    at,
                    EventKind::Deliver {
                        from,
                        to,
                        msg,
                        span,
                    },
                );
                self.metrics.bump(counter!("sim.messages_sent"), 1);
            }
            Delivery::Drop => {
                self.metrics.bump(counter!("sim.messages_dropped"), 1);
            }
        }
    }

    pub(crate) fn set_timer(
        &mut self,
        node: NodeId,
        incarnation: u64,
        delay: SimDuration,
        token: u64,
    ) -> TimerHandle {
        let seq = self.seq;
        let slot = self.push(
            self.now + delay,
            EventKind::Timer {
                node,
                token,
                incarnation,
                seq,
            },
        );
        TimerHandle { slot, seq }
    }

    /// Cancels the timer `handle` was issued for, if it is still queued.
    /// Once it has fired or been cancelled, its slot is free or holds a
    /// later event under another `seq`, and this does nothing: a spent
    /// handle leaves no trace in the scheduler.
    pub(crate) fn cancel_timer(&mut self, handle: TimerHandle) {
        if let Some(cell) = self.slots.get_mut(handle.slot as usize) {
            if matches!(cell, Slot::Queued(EventKind::Timer { seq, .. }) if *seq == handle.seq) {
                *cell = Slot::Queued(EventKind::Cancelled);
            }
        }
    }
}

/// Everything the scheduler knows about one node id.
#[derive(Default)]
struct Node {
    /// The running process; `None` while the node is crashed.
    actor: Option<Box<dyn AnyActor>>,
    /// Bumped on every [`Sim::add_node`] for the id; lets the dispatcher
    /// discard timers armed by a previous incarnation.
    incarnation: u64,
}

/// A deterministic discrete-event simulation of a storage cluster.
///
/// See the crate-level docs for an end-to-end example.
pub struct Sim {
    inner: SimInner,
    /// One record per id that was ever added or crashed.
    nodes: IdMap<NodeId, Node>,
}

impl Sim {
    /// Creates an empty simulation seeded with `seed` and the default
    /// network model.
    pub fn new(seed: u64) -> Sim {
        Sim::with_network(seed, Network::default())
    }

    /// Creates an empty simulation with an explicit network model.
    pub fn with_network(seed: u64, net: Network) -> Sim {
        Sim {
            inner: SimInner {
                now: SimTime::ZERO,
                rng: StdRng::seed_from_u64(seed),
                metrics: Metrics::new(),
                tracer: Tracer::new(),
                incoming_span: None,
                net,
                queue: BinaryHeap::new(),
                slots: Vec::new(),
                free: None,
                seq: 0,
                last_delivery: IdMap::default(),
            },
            nodes: IdMap::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The metric sink (read side for harnesses).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The metric sink (write side, e.g. to clear between phases).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.inner.metrics
    }

    /// The network model, for partition/latency manipulation mid-run.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.inner.net
    }

    /// The span collector (read side for harnesses).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The span collector (write side, e.g. to set the slow-op threshold
    /// or clear between phases).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.inner.tracer
    }

    /// Adds a node running `actor`. Its [`Actor::on_start`] is scheduled at
    /// the current virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present.
    pub fn add_node<A: Actor>(&mut self, id: NodeId, actor: A) {
        let node = self.nodes.entry(id).or_default();
        assert!(
            node.actor.is_none(),
            "node {id} already exists in the simulation"
        );
        node.actor = Some(Box::new(actor));
        node.incarnation += 1;
        let now = self.inner.now;
        self.inner.push(now, EventKind::Start(id));
    }

    /// Crashes `node`: its state is dropped, in-flight messages to it are
    /// discarded on delivery, and its timers never fire.
    pub fn crash(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default().actor = None;
        self.inner.metrics.bump(counter!("sim.crashes"), 1);
    }

    /// Restarts `node` with fresh actor state (cold restart, as when a
    /// daemon process is respawned).
    pub fn restart<A: Actor>(&mut self, node: NodeId, actor: A) {
        if let Some(old) = self.nodes.get_mut(&node) {
            old.actor = None;
        }
        self.add_node(node, actor);
    }

    /// Returns whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes
            .get(&node)
            .is_some_and(|record| record.actor.is_none())
    }

    /// Injects a message from a fictitious external source into `to`'s
    /// mailbox at the current time (no network latency).
    pub fn inject<M: Any>(&mut self, to: NodeId, msg: M) {
        let now = self.inner.now;
        self.inner.push(
            now,
            EventKind::Deliver {
                from: to,
                to,
                msg: Box::new(msg),
                span: None,
            },
        );
    }

    /// Typed shared access to a node's actor state.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or its actor is not a `T`.
    pub fn actor<T: Actor>(&self, id: NodeId) -> &T {
        self.nodes
            .get(&id)
            .and_then(|node| node.actor.as_deref())
            .unwrap_or_else(|| panic!("no such node: {id}"))
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Typed exclusive access to a node's actor state.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or its actor is not a `T`.
    pub fn actor_mut<T: Actor>(&mut self, id: NodeId) -> &mut T {
        self.nodes
            .get_mut(&id)
            .and_then(|node| node.actor.as_deref_mut())
            .unwrap_or_else(|| panic!("no such node: {id}"))
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Runs a closure against a node's actor with a full [`Context`], as if
    /// an external event had been dispatched to it. This is how harnesses
    /// drive client actors synchronously.
    pub fn with_actor<T: Actor, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_>) -> R,
    ) -> R {
        let Some(Node {
            actor: Some(actor),
            incarnation,
        }) = self.nodes.get_mut(&id)
        else {
            panic!("no such node: {id}");
        };
        let typed = actor
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()));
        let mut ctx = Context {
            me: id,
            incarnation: *incarnation,
            inner: &mut self.inner,
        };
        f(typed, &mut ctx)
    }

    /// Processes the next event, returning its timestamp, or `None` if the
    /// queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        match self.inner.pop()? {
            EventKind::Cancelled => {}
            EventKind::Start(node) => {
                self.dispatch(node, None, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                span,
            } => {
                self.inner.incoming_span = span;
                self.dispatch(to, None, |actor, ctx| actor.on_message(ctx, from, msg));
                self.inner.incoming_span = None;
            }
            EventKind::Timer {
                node,
                token,
                incarnation,
                ..
            } => {
                self.dispatch(node, Some(incarnation), |actor, ctx| {
                    actor.on_timer(ctx, token)
                });
            }
        }
        Some(self.inner.now)
    }

    /// Runs `f` on `node`'s actor, borrowed in place beside the [`Context`]
    /// over `inner`: nothing a callback can reach crashes a node, so the
    /// record cannot change under it. A timer passes the incarnation it
    /// was `armed_in`.
    fn dispatch<F>(&mut self, node: NodeId, armed_in: Option<u64>, f: F)
    where
        F: FnOnce(&mut dyn AnyActor, &mut Context<'_>),
    {
        match self.nodes.get_mut(&node) {
            // Armed by a previous incarnation of the node: the process
            // that set it died, so the timer dies with it.
            Some(record) if armed_in.is_some_and(|armed| armed != record.incarnation) => {
                self.inner
                    .metrics
                    .bump(counter!("sim.stale_timers_dropped"), 1);
            }
            Some(Node {
                actor: Some(actor),
                incarnation,
            }) => {
                let mut ctx = Context {
                    me: node,
                    incarnation: *incarnation,
                    inner: &mut self.inner,
                };
                f(actor.as_mut(), &mut ctx);
            }
            // Messages to crashed or never-created nodes vanish, as on a
            // real network.
            _ => self
                .inner
                .metrics
                .bump(counter!("sim.messages_to_dead_nodes"), 1),
        }
    }

    /// Runs until the queue is empty or virtual time would exceed
    /// `deadline`; the clock ends at `deadline` exactly.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.inner.next_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
        if self.inner.now < deadline {
            self.inner.now = deadline;
        }
    }

    /// Runs for `dur` of virtual time from now.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.inner.now + dur;
        self.run_until(deadline);
    }

    /// Runs until the event queue drains completely.
    ///
    /// Beware: periodic timers keep a queue non-empty forever; prefer
    /// [`Sim::run_until`] for systems with heartbeats.
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs until `pred(self)` is true or `deadline` passes. Returns whether
    /// the predicate was satisfied.
    pub fn run_until_pred(
        &mut self,
        deadline: SimTime,
        mut pred: impl FnMut(&Sim) -> bool,
    ) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            if self.inner.next_at().is_some_and(|at| at <= deadline) {
                self.step();
            } else {
                if self.inner.now < deadline {
                    self.inner.now = deadline;
                }
                return pred(self);
            }
        }
    }

    /// Keys in the event queue — messages in flight, armed timers and the
    /// tombstones of cancelled ones: the scheduler's occupancy.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetConfig;

    #[derive(Debug)]
    struct Tick;

    /// Records the order and time of everything that happens to it.
    struct Recorder {
        log: Vec<(SimTime, String)>,
    }

    impl Actor for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.log.push((ctx.now(), "start".into()));
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, _msg: Box<dyn Any>) {
            self.log.push((ctx.now(), format!("msg from {from}")));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.log.push((ctx.now(), format!("timer {token}")));
        }
    }

    fn recorder() -> Recorder {
        Recorder { log: Vec::new() }
    }

    #[test]
    fn start_event_fires() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(NodeId(0)).log[0].1, "start");
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.set_timer(SimDuration::from_millis(5), 2);
        });
        sim.run_until_idle();
        let log = &sim.actor::<Recorder>(NodeId(0)).log;
        assert_eq!(log[1].1, "timer 2");
        assert_eq!(log[2].1, "timer 1");
        assert_eq!(log[1].0, SimTime(5_000));
        assert_eq!(log[2].0, SimTime(10_000));
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            let h = ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.cancel_timer(h);
        });
        sim.run_until_idle();
        assert_eq!(sim.actor::<Recorder>(NodeId(0)).log.len(), 1);
    }

    #[test]
    fn spent_handle_does_not_cancel_the_timer_reusing_its_slot() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.run_until_idle();
        let first = sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(1), 1)
        });
        sim.run_until_idle();
        let second = sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(1), 2)
        });
        assert_eq!(first.slot, second.slot, "the freed slot is reused");
        assert_ne!(first, second);
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            ctx.cancel_timer(first);
            ctx.cancel_timer(first);
        });
        sim.run_until_idle();
        let log = &sim.actor::<Recorder>(NodeId(0)).log;
        assert_eq!(log.last().map(|e| e.1.as_str()), Some("timer 2"));
    }

    #[test]
    fn cancelling_twice_is_a_no_op_and_the_tombstone_keeps_its_place() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.run_until_idle();
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            let h = ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.cancel_timer(h);
            ctx.cancel_timer(h);
        });
        assert_eq!(sim.queue_len(), 1);
        assert_eq!(sim.step(), Some(SimTime(10_000)));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.actor::<Recorder>(NodeId(0)).log.len(), 1);
    }

    /// Re-arms itself from its own firing and cancels the handle that
    /// just fired.
    struct Watchdog {
        armed: Option<TimerHandle>,
        fired: u32,
    }

    impl Actor for Watchdog {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.on_timer(ctx, 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Box<dyn Any>) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            self.fired += 1;
            let next = ctx.set_timer(SimDuration::from_millis(20), 0);
            if let Some(spent) = self.armed.replace(next) {
                ctx.cancel_timer(spent);
            }
        }
    }

    #[test]
    fn cancelling_spent_handles_leaves_no_bookkeeping_behind() {
        let mut sim = Sim::new(0);
        sim.add_node(
            NodeId(0),
            Watchdog {
                armed: None,
                fired: 0,
            },
        );
        for _ in 0..100_000 {
            sim.step();
        }
        assert_eq!(sim.actor::<Watchdog>(NodeId(0)).fired, 100_000);
        // One event is ever queued at a time; everything the scheduler
        // keeps per event stays that size.
        assert_eq!(sim.queue_len(), 1);
        assert!(
            sim.inner.slots.len() <= 2,
            "{} slots",
            sim.inner.slots.len()
        );
        assert!(sim.inner.queue.capacity() <= 8);
    }

    #[test]
    fn slot_stays_small() {
        // The slab keeps its high-water mark, so its cell is what a burst
        // of queued events costs for the rest of the run.
        assert!(std::mem::size_of::<Slot>() <= 48);
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn messages_to_crashed_nodes_are_dropped() {
        let mut sim = Sim::with_network(0, Network::new(NetConfig::instant()));
        sim.add_node(NodeId(0), recorder());
        sim.add_node(NodeId(1), recorder());
        sim.run_until_idle();
        sim.crash(NodeId(1));
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), Tick);
        });
        sim.run_until_idle();
        assert_eq!(sim.metrics().counter("sim.messages_to_dead_nodes"), 1);
    }

    #[test]
    fn restart_gets_fresh_state_and_on_start() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.run_until_idle();
        sim.crash(NodeId(0));
        sim.restart(NodeId(0), recorder());
        sim.run_until_idle();
        let log = &sim.actor::<Recorder>(NodeId(0)).log;
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1, "start");
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Sim::new(0);
        sim.run_until(SimTime(123));
        assert_eq!(sim.now(), SimTime(123));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<(SimTime, String)> {
            let mut sim = Sim::new(seed);
            sim.add_node(NodeId(0), recorder());
            sim.add_node(NodeId(1), recorder());
            for i in 0..20u64 {
                sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
                    ctx.set_timer(SimDuration::from_micros(i * 17 % 97), i);
                    ctx.send(NodeId(1), Tick);
                });
            }
            sim.run_until_idle();
            let mut log = sim.actor::<Recorder>(NodeId(0)).log.clone();
            log.extend(sim.actor::<Recorder>(NodeId(1)).log.clone());
            log
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn run_until_pred_stops_early() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            for i in 0..10 {
                ctx.set_timer(SimDuration::from_millis(i), i);
            }
        });
        let hit = sim.run_until_pred(SimTime(1_000_000), |s| {
            s.actor::<Recorder>(NodeId(0)).log.len() >= 4
        });
        assert!(hit);
        assert!(sim.now() < SimTime(1_000_000));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_node_panics() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.add_node(NodeId(0), recorder());
    }

    #[test]
    fn latency_orders_remote_after_local() {
        let mut sim = Sim::new(0);
        sim.add_node(NodeId(0), recorder());
        sim.add_node(NodeId(1), recorder());
        sim.run_until_idle();
        sim.with_actor::<Recorder, _>(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), Tick); // remote: >= 150us
            ctx.send(NodeId(0), Tick); // loopback: 5us
        });
        sim.run_until_idle();
        let local_at = sim.actor::<Recorder>(NodeId(0)).log[1].0;
        let remote_at = sim.actor::<Recorder>(NodeId(1)).log[1].0;
        assert!(local_at < remote_at);
    }
}
