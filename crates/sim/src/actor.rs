//! The actor abstraction and the per-dispatch context handed to actors.

use std::any::Any;
use std::fmt::Display;

use rand::rngs::StdRng;
use rand::Rng;

use crate::sched::SimInner;
use crate::trace::{SpanContext, Tracer};
use crate::{Metrics, NodeId, SimDuration, SimTime};

/// A simulated daemon or client.
///
/// Actors own their state, communicate exclusively through messages, and
/// observe time through timers. All callbacks run on the simulator thread;
/// reentrancy is impossible.
pub trait Actor: 'static {
    /// Invoked once when the node is added to the simulation (or restarted
    /// after a crash).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Invoked for every message delivered to this node.
    ///
    /// `msg` is the boxed payload; actors `downcast` to the concrete message
    /// types they understand and ignore the rest.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn Any>);

    /// Invoked when a timer armed with [`Context::set_timer`] fires. `token`
    /// is the actor-chosen discriminator passed at arm time.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {}
}

/// Handle for cancelling an armed timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    /// Where the scheduler keeps the timer's event.
    pub(crate) slot: u32,
    /// The event's queue sequence number: unique per event, so it tells
    /// this timer from a later event that reuses the slot.
    pub(crate) seq: u64,
}

/// Capabilities available to an actor during a callback.
///
/// A `Context` can send messages (routed through the network model), arm and
/// cancel timers, read the virtual clock, draw deterministic randomness, and
/// record metrics.
pub struct Context<'a> {
    pub(crate) me: NodeId,
    /// Incarnation of `me` this callback runs in; stamped on its timers.
    pub(crate) incarnation: u64,
    pub(crate) inner: &'a mut SimInner,
}

impl Context<'_> {
    /// The node this callback is running on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Sends `msg` to `to`, subject to the network model (latency, loss,
    /// partitions). Self-sends use loopback latency and are never dropped.
    pub fn send<M: Any>(&mut self, to: NodeId, msg: M) {
        let me = self.me;
        self.inner.send_from(me, to, Box::new(msg));
    }

    /// Sends `msg` to `to` after an additional local delay — used to model
    /// service time before a reply leaves the node.
    pub fn send_after<M: Any>(&mut self, delay: SimDuration, to: NodeId, msg: M) {
        let me = self.me;
        self.inner.send_from_after(me, to, Box::new(msg), delay);
    }

    /// Arms a one-shot timer firing after `delay`; `token` is handed back to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        self.inner
            .set_timer(self.me, self.incarnation, delay, token)
    }

    /// Cancels an armed timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.inner.cancel_timer(handle);
    }

    /// The simulation-wide deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.inner.rng
    }

    /// Capped exponential backoff with jitter: `base` doubled `doublings`
    /// times, at most `cap`, plus up to half of that again drawn from the
    /// seeded RNG — retry storms de-synchronize yet replay exactly. One
    /// RNG draw per call.
    pub fn backoff(&mut self, base: SimDuration, cap: SimDuration, doublings: u32) -> SimDuration {
        let delay = base
            .as_micros()
            .saturating_mul(1u64 << doublings.min(20))
            .min(cap.as_micros());
        let jitter = self.rng().gen_range(0..=delay / 2);
        SimDuration::from_micros(delay + jitter)
    }

    /// The simulation-wide metric sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.inner.metrics
    }

    /// The simulation-wide span collector.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.inner.tracer
    }

    /// The trace context that travelled with the message currently being
    /// dispatched, if the sender attached one via [`Context::send_spanned`].
    /// `None` during `on_start`/`on_timer` callbacks and for untraced
    /// messages.
    pub fn incoming_span(&self) -> Option<SpanContext> {
        self.inner.incoming_span
    }

    /// Like [`Context::send`], but carries `span` on the wire so the
    /// receiver can parent its work under it.
    pub fn send_spanned<M: Any>(&mut self, to: NodeId, msg: M, span: Option<SpanContext>) {
        let me = self.me;
        self.inner
            .send_from_spanned(me, to, Box::new(msg), SimDuration::ZERO, span);
    }

    /// Like [`Context::send_after`], but carries `span` on the wire.
    pub fn send_after_spanned<M: Any>(
        &mut self,
        delay: SimDuration,
        to: NodeId,
        msg: M,
        span: Option<SpanContext>,
    ) {
        let me = self.me;
        self.inner
            .send_from_spanned(me, to, Box::new(msg), delay, span);
    }

    /// Opens a span named `name` on this node at the current virtual time.
    /// With `parent = None` the span roots a fresh trace.
    pub fn span_start(&mut self, name: &str, parent: Option<SpanContext>) -> SpanContext {
        let me = self.me;
        let now = self.inner.now;
        self.inner.tracer.start(me, name, parent, now)
    }

    /// Closes `span` at the current virtual time.
    pub fn span_end(&mut self, span: SpanContext) {
        let now = self.inner.now;
        self.inner.tracer.end(span, now);
    }

    /// Closes `span` at an explicit timestamp — used when the modeled work
    /// completes at a known future instant (e.g. after a service delay).
    pub fn span_end_at(&mut self, span: SpanContext, at: SimTime) {
        self.inner.tracer.end(span, at);
    }

    /// Attaches a key/value annotation to `span`.
    pub fn span_tag(&mut self, span: SpanContext, key: &str, value: &str) {
        self.inner.tracer.tag(span, key, value);
    }

    /// [`Context::span_tag`] for a value that is not text yet (a count, a
    /// typed verb): formatted only if the tracer records the span, so a
    /// tag costs an untraced run nothing.
    pub fn span_tag_display(&mut self, span: SpanContext, key: &str, value: impl Display) {
        self.inner.tracer.tag_display(span, key, value);
    }
}

/// Object-safe wrapper that lets the simulator store heterogeneous actors
/// and still hand typed references back to the harness.
pub(crate) trait AnyActor: Actor {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Actor> AnyActor for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
