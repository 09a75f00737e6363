//! Benchmark-owned wrappers that measure each layer from outside: every
//! actor runs inside a [`Timed`], every balancer inside a
//! [`TimedBalancer`]. They count calls always and read the host clock only
//! in the traced run, so untraced reps pay one counter increment per
//! event.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use mala_mds::balancer::{BalanceView, Balancer, Export};
use mala_sim::{Actor, Context, NodeId, SimTime};

/// Which layer an actor belongs to (the crate that implements it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `mala-consensus` monitors.
    Mon,
    /// `mala-rados` OSDs.
    Osd,
    /// `mala-mds` metadata servers.
    Mds,
    /// `mala-zlog` clients (log clients and sequencer workload clients).
    Client,
    /// The benchmark's own helper actors (admin, policy writer).
    Harness,
}

const ROLES: usize = 5;

/// Handler calls and host time, per role and per node, shared by every
/// wrapper of one rep.
#[derive(Default)]
pub struct HostStats {
    timing: Cell<bool>,
    calls: [Cell<u64>; ROLES],
    nanos: [Cell<u64>; ROLES],
    node_calls: RefCell<BTreeMap<NodeId, u64>>,
}

impl HostStats {
    pub fn new(timing: bool) -> Rc<HostStats> {
        let stats = HostStats::default();
        stats.timing.set(timing);
        Rc::new(stats)
    }

    /// Handler calls of `role` so far.
    pub fn calls(&self, role: Role) -> u64 {
        self.calls[role as usize].get()
    }

    /// Host nanoseconds spent inside handlers of `role` (traced run only).
    pub fn nanos(&self, role: Role) -> u64 {
        self.nanos[role as usize].get()
    }

    /// Handler calls of every role: the events the scheduler dispatched to
    /// live nodes.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(Cell::get).sum()
    }

    /// Handler calls of one node (traced run only).
    pub fn node_calls(&self, node: NodeId) -> u64 {
        self.node_calls.borrow().get(&node).copied().unwrap_or(0)
    }

    fn record(&self, role: Role, node: NodeId, started: Option<Instant>) {
        let i = role as usize;
        self.calls[i].set(self.calls[i].get() + 1);
        if let Some(t) = started {
            self.nanos[i].set(self.nanos[i].get() + t.elapsed().as_nanos() as u64);
            *self.node_calls.borrow_mut().entry(node).or_insert(0) += 1;
        }
    }
}

/// Closure run after every callback of a wrapped actor; closed-loop load
/// generators use it to issue the next request when one completes.
pub type AfterHook<A> = Box<dyn FnMut(&mut A, &mut Context<'_>)>;

/// Closure shown every message (and its delivery time) before the wrapped
/// actor consumes it; the sequencer workload uses it to see each granted
/// position.
pub type Tap = Box<dyn FnMut(&dyn Any, SimTime)>;

/// Timer token a hook may arm on its own node to be run again later (a
/// closed-loop client's think time). The wrapper swallows it: the wrapped
/// actor never sees a token it did not arm.
pub const HOOK_TOKEN: u64 = u64::MAX;

/// Forwards `on_start`/`on_message`/`on_timer` to `inner`, counting calls
/// and (in the traced run) host time per role and node.
pub struct Timed<A> {
    pub inner: A,
    role: Role,
    stats: Rc<HostStats>,
    after: Option<AfterHook<A>>,
    tap: Option<Tap>,
}

impl<A: Actor> Timed<A> {
    pub fn new(inner: A, role: Role, stats: &Rc<HostStats>) -> Timed<A> {
        Timed {
            inner,
            role,
            stats: Rc::clone(stats),
            after: None,
            tap: None,
        }
    }

    /// Installs the message tap.
    pub fn set_tap(&mut self, tap: Tap) {
        self.tap = Some(tap);
    }

    /// Installs the closed-loop hook.
    pub fn set_after(&mut self, hook: AfterHook<A>) {
        self.after = Some(hook);
    }

    fn around(&mut self, ctx: &mut Context<'_>, f: impl FnOnce(&mut A, &mut Context<'_>)) {
        let started = self.stats.timing.get().then(Instant::now);
        f(&mut self.inner, ctx);
        if let Some(hook) = self.after.as_mut() {
            hook(&mut self.inner, ctx);
        }
        self.stats.record(self.role, ctx.me(), started);
    }
}

impl<A: Actor> Actor for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.around(ctx, |a, ctx| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>) {
        if let Some(tap) = self.tap.as_mut() {
            tap(msg.as_ref(), ctx.now());
        }
        self.around(ctx, |a, ctx| a.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.around(ctx, |a, ctx| {
            if token != HOOK_TOKEN {
                a.on_timer(ctx, token);
            }
        });
    }
}

/// Host nanoseconds of each `decide` call of the wrapped balancers.
pub type DecideLog = Rc<RefCell<Vec<u64>>>;

/// Times the public `Balancer::decide` of the balancer it wraps and
/// forwards everything else untouched.
pub struct TimedBalancer {
    inner: Box<dyn Balancer>,
    log: DecideLog,
}

impl TimedBalancer {
    pub fn new(inner: Box<dyn Balancer>, log: &DecideLog) -> TimedBalancer {
        TimedBalancer {
            inner,
            log: Rc::clone(log),
        }
    }
}

impl Balancer for TimedBalancer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &BalanceView) -> Vec<Export> {
        let t = Instant::now();
        let out = self.inner.decide(view);
        self.log.borrow_mut().push(t.elapsed().as_nanos() as u64);
        out
    }

    fn install_policy(&mut self, source: &str, version: u64) -> Result<(), String> {
        self.inner.install_policy(source, version)
    }

    fn wants_policy(&self) -> bool {
        self.inner.wants_policy()
    }

    fn take_log(&mut self) -> Vec<String> {
        self.inner.take_log()
    }
}
