//! A librados-like client: maps object names onto PG primaries, tags
//! requests with its osdmap epoch, and retries transparently across map
//! changes and primary failovers.

use std::any::Any;
use std::collections::BTreeMap;
use std::rc::Rc;

use mala_consensus::{MapFollower, MonMsg, SERVICE_MAP_OSD};
use mala_sim::{counter, Actor, Context, NodeId, Requests, Sim, SimDuration, SimTime, SpanContext};

use crate::object::ObjectId;
use crate::ops::{OpResult, OsdError, Transaction};
use crate::osd::OsdMsg;
use crate::osdmap::OsdMapView;

/// The token of the client's one retransmit timer, clear of the small
/// tokens other actors use. Public so actors embedding a [`RadosClient`]
/// can route timer callbacks at or above it to [`Actor::on_timer`] on the
/// embedded client.
pub const RETRY_TOKEN_BASE: u64 = 1 << 48;
/// First retransmit delay; doubles each attempt.
const RETRY_BASE: SimDuration = SimDuration::from_millis(10);
/// Cap on the retransmit backoff.
const RETRY_CAP: SimDuration = SimDuration::from_secs(2);
/// Per-request deadline (submission → [`OsdError::Timeout`]).
const REQUEST_DEADLINE: SimDuration = SimDuration::from_secs(25);

/// A completed request surfaced to the harness.
#[derive(Debug, Clone)]
pub struct ClientEvent<W = ()> {
    /// The request id returned by [`RadosClient::submit`].
    pub reqid: u64,
    /// Outcome.
    pub result: Result<Vec<OpResult>, OsdError>,
    /// What waits on the request: the value its submitter handed in.
    pub waiter: W,
}

struct InFlight<W> {
    /// The request as every (re)transmission carries it: one allocation,
    /// shared with the messages and whoever receives them.
    req: Rc<(ObjectId, Transaction)>,
    /// Submission time, for the latency; the request's deadline is
    /// [`REQUEST_DEADLINE`] later.
    submitted_at: SimTime,
    /// The `rados.op` span covering submission → completion; travels on
    /// every (re)transmission so the OSD parents its work under it.
    span: Option<SpanContext>,
    waiter: W,
}

/// The RADOS client actor. Each request holds a waiter of type `W`, handed
/// in at submission and handed back with the completion: an actor that
/// embeds the client keeps no table of its own from request id to what
/// waits (DESIGN §26). The harness's client waits with `()`.
pub struct RadosClient<W = ()> {
    osdmap: MapFollower<OsdMapView>,
    next_reqid: u64,
    /// The requests in flight by request id: each one's retransmit is its
    /// look, and one parked waits for a map with an epoch above the one it
    /// names.
    inflight: Requests<InFlight<W>, u64>,
    /// Completions not yet collected, by request id: ordered, so draining
    /// them never lets hash order decide what the caller does first.
    completed: BTreeMap<u64, ClientEvent<W>>,
}

impl RadosClient {
    /// Creates a client bootstrapping its maps from `monitor`.
    pub fn new(monitor: NodeId) -> RadosClient {
        RadosClient::embedded(monitor)
    }

    /// Submits a transaction; returns its request id. Drive the simulation
    /// and collect the outcome with [`RadosClient::take_completed`] (or use
    /// [`request`] for a synchronous harness call).
    pub fn submit(&mut self, ctx: &mut Context<'_>, oid: ObjectId, txn: Transaction) -> u64 {
        self.submit_spanned(ctx, oid, txn, None, ())
    }
}

impl<W> RadosClient<W> {
    /// Creates a client whose requests wait with a `W`, bootstrapping its
    /// maps from `monitor`: the form an actor embedding it holds.
    pub fn embedded(monitor: NodeId) -> RadosClient<W> {
        RadosClient {
            osdmap: MapFollower::new(SERVICE_MAP_OSD, monitor),
            next_reqid: 1,
            inflight: Requests::new(RETRY_TOKEN_BASE),
            completed: BTreeMap::new(),
        }
    }

    /// The client's current osdmap epoch.
    pub fn map_epoch(&self) -> u64 {
        self.osdmap.view().epoch
    }

    /// Whether a snapshot of the osdmap has arrived, at epoch 0 or later.
    pub fn map_landed(&self) -> bool {
        self.osdmap.landed()
    }

    /// Re-asks for the osdmap by subscribing again: the monitor answers
    /// with the map, and one restarted since this client's `on_start`
    /// learns of it again and pushes it the next commit.
    fn resubscribe(&self, ctx: &mut Context<'_>) {
        ctx.metrics()
            .bump(counter!("client.osdmap_resubscribes"), 1);
        self.osdmap.subscribe(ctx);
    }

    /// Submits a transaction on behalf of `waiter`; returns its request id.
    /// The request's `rados.op` span is parented under `parent` (e.g. a
    /// ZLog append span), or roots a fresh trace.
    pub fn submit_spanned(
        &mut self,
        ctx: &mut Context<'_>,
        oid: ObjectId,
        txn: Transaction,
        parent: Option<SpanContext>,
        waiter: W,
    ) -> u64 {
        let reqid = self.next_reqid;
        self.next_reqid += 1;
        let span = ctx.span_start("rados.op", parent);
        ctx.span_tag(span, "oid", &oid.name);
        let inflight = InFlight {
            req: Rc::new((oid, txn)),
            submitted_at: ctx.now(),
            span: Some(span),
            waiter,
        };
        self.inflight
            .insert(reqid, inflight, ctx.now() + REQUEST_DEADLINE);
        self.dispatch(ctx, reqid);
        reqid
    }

    /// Removes and returns the completion for `reqid`, if present.
    pub fn take_completed(&mut self, reqid: u64) -> Option<ClientEvent<W>> {
        self.completed.remove(&reqid)
    }

    /// Whether `reqid` has completed.
    pub fn is_completed(&self, reqid: u64) -> bool {
        self.completed.contains_key(&reqid)
    }

    /// Collects the completions held now, in ascending request order, one
    /// [`Drain::next`] at a time. An embedding actor collects this way: a
    /// request it cancels while it handles an earlier completion does not
    /// come back, and one that completes meanwhile waits for the next
    /// drain.
    pub fn drain_completed(&self) -> Drain {
        Drain {
            below: self.next_reqid,
        }
    }

    /// Every request in flight or uncollected with its waiter, in no
    /// particular order.
    pub fn waiters(&self) -> impl Iterator<Item = (u64, &W)> {
        let inflight = self.inflight.iter().map(|(reqid, f)| (reqid, &f.waiter));
        inflight.chain(self.completed.iter().map(|(reqid, e)| (*reqid, &e.waiter)))
    }

    /// Whether a request in flight or uncollected waits with `waiter`.
    pub fn has_waiter(&self, waiter: &W) -> bool
    where
        W: PartialEq,
    {
        self.waiters().any(|(_, w)| w == waiter)
    }

    /// Whether any completion is waiting to be collected.
    pub fn holds_completions(&self) -> bool {
        !self.completed.is_empty()
    }

    /// Whether any request is still the client's to retransmit.
    pub fn holds_requests(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Abandons `reqid`: nothing more is sent for it and no completion
    /// surfaces, collected or not. Its `rados.op` span ends tagged
    /// `cancelled`. An embedder calls this where it drops the request's
    /// route; a reply still on the wire finds no request.
    pub fn cancel(&mut self, ctx: &mut Context<'_>, reqid: u64) {
        self.completed.remove(&reqid);
        let Some((inflight, _)) = self.inflight.remove(reqid) else {
            return;
        };
        if let Some(span) = inflight.span {
            ctx.span_tag(span, "cancelled", "true");
            ctx.span_end(span);
        }
        ctx.metrics().bump(counter!("client.cancelled"), 1);
    }

    /// [`RadosClient::cancel`]s every request whose waiter `cancelled`
    /// selects, in ascending request order: each cancel of a request in
    /// flight ends a span, and hash order would reorder the trace from run
    /// to run.
    pub fn cancel_where(&mut self, ctx: &mut Context<'_>, cancelled: impl Fn(&W) -> bool) {
        let held = self.waiters().filter(|(_, waiter)| cancelled(waiter));
        let mut reqids: Vec<u64> = held.map(|(reqid, _)| reqid).collect();
        reqids.sort_unstable();
        for reqid in reqids {
            self.cancel(ctx, reqid);
        }
    }

    /// Completes `reqid`, its retransmit and park entry dropped with it.
    fn complete(
        &mut self,
        ctx: &mut Context<'_>,
        reqid: u64,
        result: Result<Vec<OpResult>, OsdError>,
    ) {
        let Some((inflight, _)) = self.inflight.remove(reqid) else {
            return;
        };
        let latency = ctx.now().since(inflight.submitted_at);
        if let Some(span) = inflight.span {
            if result.is_err() {
                ctx.span_tag(span, "error", "true");
            }
            ctx.span_end(span);
        }
        ctx.metrics()
            .observe_hist("client.latency_us", latency.as_micros() as f64);
        ctx.metrics().bump(counter!("client.completed"), 1);
        if matches!(result, Err(OsdError::Timeout)) {
            ctx.metrics().bump(counter!("client.timeouts"), 1);
        }
        let waiter = inflight.waiter;
        self.completed.insert(
            reqid,
            ClientEvent {
                reqid,
                result,
                waiter,
            },
        );
    }

    fn dispatch(&mut self, ctx: &mut Context<'_>, reqid: u64) {
        let Some(deadline) = self.inflight.deadline(reqid) else {
            return;
        };
        if ctx.now() >= deadline {
            self.complete(ctx, reqid, Err(OsdError::Timeout));
            return;
        }
        let Some(attempts) = self.inflight.charge(reqid) else {
            return;
        };
        if attempts > 1 {
            ctx.metrics().bump(counter!("client.retries"), 1);
        }
        let Some(inflight) = self.inflight.get(reqid) else {
            return;
        };
        let req = Rc::clone(&inflight.req);
        let span = inflight.span;
        let map = self.osdmap.view();
        let acting = map.acting_set_of(&req.0);
        // A committed map that places no OSD for this object (every
        // candidate down or drained) is a typed, retryable condition the
        // caller must see now — blocking until the deadline just converts
        // an operator-visible state into an opaque timeout.
        if map.epoch > 0 && acting.as_ref().is_some_and(|set| set.is_empty()) {
            ctx.metrics().bump(counter!("client.no_osds_up"), 1);
            self.complete(ctx, reqid, Err(OsdError::NoOsdsUp));
            return;
        }
        let target = acting
            .and_then(|acting| acting.first().copied())
            .and_then(|primary| map.node_of(primary));
        match target {
            Some(node) => {
                let msg = OsdMsg::ClientOp {
                    reqid,
                    req,
                    map_epoch: map.epoch,
                };
                ctx.send_spanned(node, msg, span);
            }
            None => {
                // No usable map yet: block until a newer epoch arrives.
                self.inflight.park(reqid, map.epoch);
                self.resubscribe(ctx);
            }
        }
        // Always hold a retransmit deadline: the op, its reply, or the
        // re-subscribe may be lost. When it comes due the request backs off
        // and goes out again.
        let at = ctx.now() + ctx.backoff(RETRY_BASE, RETRY_CAP, attempts - 1);
        self.inflight.look(ctx, reqid, at);
    }
}

/// A drain of a [`RadosClient`]'s completions: those of the requests
/// submitted before [`RadosClient::drain_completed`] was called.
#[derive(Debug, Clone, Copy)]
pub struct Drain {
    below: u64,
}

impl Drain {
    /// Removes and returns the next completion of the drain from `client`,
    /// lowest request id first.
    pub fn next<W>(&self, client: &mut RadosClient<W>) -> Option<ClientEvent<W>> {
        let entry = client.completed.first_entry()?;
        (*entry.key() < self.below).then(|| entry.remove())
    }
}

impl<W: 'static> Actor for RadosClient<W> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Request ids stay unique across incarnations of this node: a
        // daemon restarted here and counting from 1 again would have its
        // first requests answered from the OSDs' reply caches of its
        // previous life. Virtual time is strictly increasing across
        // restarts, and no incarnation mints a request per microsecond.
        self.next_reqid = self.next_reqid.max(ctx.now().as_micros());
        self.osdmap.subscribe(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        let msg = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                if self.osdmap.follow(&mon) == Some(true) {
                    let epoch = self.map_epoch();
                    let mut retry = self.inflight.unpark(|&below| epoch > below);
                    // `dispatch` sends and draws from the RNG; the seeds'
                    // event order has the requests go in ascending reqid
                    // order, not park order.
                    retry.sort_unstable();
                    for reqid in retry {
                        self.dispatch(ctx, reqid);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(msg) = msg.downcast::<OsdMsg>() else {
            return;
        };
        let OsdMsg::ClientReply { reqid, result, .. } = *msg else {
            return;
        };
        if !self.inflight.contains_key(reqid) {
            return;
        }
        // Retry on a newer map; the retransmit stays armed in case the
        // re-subscribe or its answer is lost.
        let below = match result {
            // Once we hold a map at least as new as the OSD's.
            Err(OsdError::StaleEpoch { current }) => {
                ctx.metrics()
                    .bump(counter!("client.stale_epoch_retries"), 1);
                current - 1
            }
            // Mis-routed: our map disagrees with the cluster's (the OSD may
            // be ahead of us, or we raced a failover): on any newer epoch.
            Err(OsdError::NotPrimary) | Err(OsdError::NotReady) => self.map_epoch(),
            other => return self.complete(ctx, reqid, other),
        };
        self.inflight.park(reqid, below);
        self.resubscribe(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != RETRY_TOKEN_BASE {
            return;
        }
        while let Some(reqid) = self.inflight.pop_due(ctx) {
            // The attempt (or its reply, or the re-subscribe) was lost or is
            // too slow; unblock and go again. dispatch() enforces the
            // deadline.
            self.inflight.unpark_id(reqid);
            self.dispatch(ctx, reqid);
        }
    }
}

/// Synchronous harness helper: submits `txn` from the client at
/// `client_node` and drives the simulation until it completes or
/// `timeout` elapses.
///
/// # Panics
///
/// Panics if the request does not complete within `timeout` — experiment
/// harnesses treat a hung request as a bug, not a condition to handle.
pub fn request(
    sim: &mut Sim,
    client_node: NodeId,
    oid: ObjectId,
    txn: Transaction,
    timeout: SimDuration,
) -> ClientEvent {
    let reqid =
        sim.with_actor::<RadosClient, _>(client_node, |client, ctx| client.submit(ctx, oid, txn));
    let deadline = sim.now() + timeout;
    let done = sim.run_until_pred(deadline, |s| {
        s.actor::<RadosClient>(client_node).is_completed(reqid)
    });
    assert!(done, "rados request {reqid} timed out after {timeout}");
    sim.actor_mut::<RadosClient>(client_node)
        .take_completed(reqid)
        .unwrap_or_else(|| panic!("completion for request {reqid} missing"))
}
