//! A librados-like client: maps object names onto PG primaries, tags
//! requests with its osdmap epoch, and retries transparently across map
//! changes and primary failovers.

use std::any::Any;
use std::collections::BTreeMap;
use std::rc::Rc;

use mala_consensus::{MonMsg, SERVICE_MAP_OSD};
use mala_sim::{
    counter, Actor, Context, Deadlines, IdMap, NodeId, Sim, SimDuration, SimTime, SpanContext,
};

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
pub struct ClientEvent {
    /// The request id returned by [`RadosClient::submit`].
    pub reqid: u64,
    /// Outcome.
    pub result: Result<Vec<OpResult>, OsdError>,
    /// Submission → completion latency.
    pub latency: SimDuration,
}

struct InFlight {
    /// The request as every (re)transmission carries it: one allocation,
    /// shared with the messages and whoever receives them.
    req: Rc<(ObjectId, Transaction)>,
    attempts: u32,
    submitted_at: SimTime,
    /// Hard per-request deadline; passing it completes with
    /// [`OsdError::Timeout`].
    deadline: SimTime,
    /// Waiting for a map with epoch > this before retrying.
    blocked_on_epoch: Option<u64>,
    /// When the next retransmission is due: the request's entry in
    /// [`RadosClient::retries`].
    retry_at: Option<SimTime>,
    /// The `rados.op` span covering submission → completion; travels on
    /// every (re)transmission so the OSD parents its work under it.
    span: Option<SpanContext>,
}

/// The RADOS client actor.
pub struct RadosClient {
    monitor: NodeId,
    map: OsdMapView,
    next_reqid: u64,
    inflight: IdMap<u64, InFlight>,
    /// Retransmit deadlines of the requests in flight, by request id.
    retries: Deadlines<u64>,
    /// Completions not yet collected, by request id: ordered, so draining
    /// them never lets hash order decide what the caller does first.
    completed: BTreeMap<u64, ClientEvent>,
}

impl RadosClient {
    /// Creates a client bootstrapping its maps from `monitor`.
    pub fn new(monitor: NodeId) -> RadosClient {
        RadosClient {
            monitor,
            map: OsdMapView::default(),
            next_reqid: 1,
            inflight: IdMap::default(),
            retries: Deadlines::new(RETRY_TOKEN_BASE),
            completed: BTreeMap::new(),
        }
    }

    /// The client's current osdmap epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map.epoch
    }

    /// Submits a transaction; returns its request id. Drive the simulation
    /// and collect the outcome with [`RadosClient::take_completed`] or
    /// [`RadosClient::drain_completed`] (or use [`request`] for a
    /// synchronous harness call).
    pub fn submit(&mut self, ctx: &mut Context<'_>, oid: ObjectId, txn: Transaction) -> u64 {
        self.submit_spanned(ctx, oid, txn, None)
    }

    /// Like [`RadosClient::submit`], but parents the request's `rados.op`
    /// span under `parent` (e.g. a ZLog append span) instead of rooting a
    /// fresh trace.
    pub fn submit_spanned(
        &mut self,
        ctx: &mut Context<'_>,
        oid: ObjectId,
        txn: Transaction,
        parent: Option<SpanContext>,
    ) -> u64 {
        let reqid = self.next_reqid;
        self.next_reqid += 1;
        let span = ctx.span_start("rados.op", parent);
        ctx.span_tag(span, "oid", &oid.name);
        self.inflight.insert(
            reqid,
            InFlight {
                req: Rc::new((oid, txn)),
                attempts: 0,
                submitted_at: ctx.now(),
                deadline: ctx.now() + REQUEST_DEADLINE,
                blocked_on_epoch: None,
                retry_at: None,
                span: Some(span),
            },
        );
        self.dispatch(ctx, reqid);
        reqid
    }

    /// Removes and returns the completion for `reqid`, if present.
    pub fn take_completed(&mut self, reqid: u64) -> Option<ClientEvent> {
        self.completed.remove(&reqid)
    }

    /// Whether `reqid` has completed.
    pub fn is_completed(&self, reqid: u64) -> bool {
        self.completed.contains_key(&reqid)
    }

    /// Removes and returns every completion held, in ascending request
    /// order. An embedding actor collects this way; a request it abandons
    /// it [`RadosClient::cancel`]s, so none of these is unwanted.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = ClientEvent> {
        std::mem::take(&mut self.completed).into_values()
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
        let Some(inflight) = self.inflight.remove(&reqid) else {
            return;
        };
        self.retries.disarm(reqid, inflight.retry_at);
        if let Some(span) = inflight.span {
            ctx.span_tag(span, "cancelled", "true");
            ctx.span_end(span);
        }
        ctx.metrics().bump(counter!("client.cancelled"), 1);
    }

    /// Completes `reqid` and drops its retransmit deadline.
    fn complete(
        &mut self,
        ctx: &mut Context<'_>,
        reqid: u64,
        result: Result<Vec<OpResult>, OsdError>,
    ) {
        let Some(inflight) = self.inflight.remove(&reqid) else {
            return;
        };
        self.retries.disarm(reqid, inflight.retry_at);
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
        self.completed.insert(
            reqid,
            ClientEvent {
                reqid,
                result,
                latency,
            },
        );
    }

    fn dispatch(&mut self, ctx: &mut Context<'_>, reqid: u64) {
        let Some(inflight) = self.inflight.get_mut(&reqid) else {
            return;
        };
        if ctx.now() >= inflight.deadline {
            self.complete(ctx, reqid, Err(OsdError::Timeout));
            return;
        }
        inflight.attempts += 1;
        let attempts = inflight.attempts;
        if attempts > 1 {
            ctx.metrics().bump(counter!("client.retries"), 1);
        }
        let req = Rc::clone(&inflight.req);
        let span = inflight.span;
        let acting = self.map.acting_set_of(&req.0);
        // A committed map that places no OSD for this object (every
        // candidate down or drained) is a typed, retryable condition the
        // caller must see now — blocking until the deadline just converts
        // an operator-visible state into an opaque timeout.
        if self.map.epoch > 0 && acting.as_ref().is_some_and(|set| set.is_empty()) {
            ctx.metrics().bump(counter!("client.no_osds_up"), 1);
            self.complete(ctx, reqid, Err(OsdError::NoOsdsUp));
            return;
        }
        let target = acting
            .and_then(|acting| acting.first().copied())
            .and_then(|primary| self.map.node_of(primary));
        match target {
            Some(node) => {
                let msg = OsdMsg::ClientOp {
                    reqid,
                    req,
                    map_epoch: self.map.epoch,
                };
                ctx.send_spanned(node, msg, span);
            }
            None => {
                // No usable map yet: block until a newer epoch arrives.
                if let Some(inflight) = self.inflight.get_mut(&reqid) {
                    inflight.blocked_on_epoch = Some(self.map.epoch);
                }
                ctx.send(
                    self.monitor,
                    MonMsg::Get {
                        map: SERVICE_MAP_OSD.to_string(),
                    },
                );
            }
        }
        // Always hold a retransmit deadline: the op, its reply, or the map
        // fetch may be lost. When it comes due the request backs off and
        // goes out again.
        let at = ctx.now() + ctx.backoff(RETRY_BASE, RETRY_CAP, attempts - 1);
        if let Some(inflight) = self.inflight.get_mut(&reqid) {
            let was = inflight.retry_at.replace(at);
            self.retries.arm(ctx, reqid, was, at);
        }
    }

    fn on_new_map(&mut self, ctx: &mut Context<'_>) {
        let mut retry: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, f)| match f.blocked_on_epoch {
                Some(epoch) => self.map.epoch > epoch,
                None => false,
            })
            .map(|(reqid, _)| *reqid)
            .collect();
        // `dispatch` sends and draws from the RNG: hash order must not
        // decide which request goes first.
        retry.sort_unstable();
        for reqid in retry {
            if let Some(f) = self.inflight.get_mut(&reqid) {
                f.blocked_on_epoch = None;
            }
            self.dispatch(ctx, reqid);
        }
    }
}

impl Actor for RadosClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Request ids stay unique across incarnations of this node: a
        // daemon restarted here and counting from 1 again would have its
        // first requests answered from the OSDs' reply caches of its
        // previous life. Virtual time is strictly increasing across
        // restarts, and no incarnation mints a request per microsecond.
        self.next_reqid = self.next_reqid.max(ctx.now().as_micros());
        ctx.send(
            self.monitor,
            MonMsg::Subscribe {
                map: SERVICE_MAP_OSD.to_string(),
            },
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        let msg = match msg.downcast::<MonMsg>() {
            Ok(mon) => {
                match *mon {
                    MonMsg::Snapshot(snap)
                        if snap.map == SERVICE_MAP_OSD && snap.epoch > self.map.epoch =>
                    {
                        self.map = OsdMapView::from_snapshot(&snap);
                        self.on_new_map(ctx);
                    }
                    MonMsg::Changed { map, epoch, .. }
                        if map == SERVICE_MAP_OSD
                        // Deltas alone are not enough (we may have missed
                        // epochs); fetch the full snapshot.
                        && epoch > self.map.epoch =>
                    {
                        ctx.send(
                            self.monitor,
                            MonMsg::Get {
                                map: SERVICE_MAP_OSD.to_string(),
                            },
                        );
                    }
                    _ => {}
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(msg) = msg.downcast::<OsdMsg>() else {
            return;
        };
        let OsdMsg::ClientReply {
            reqid,
            result,
            map_epoch,
        } = *msg
        else {
            return;
        };
        if !self.inflight.contains_key(&reqid) {
            return;
        }
        match result {
            Err(OsdError::StaleEpoch { current }) => {
                // Retry once we hold a map at least as new as the OSD's.
                // The retransmit timer stays armed in case the fetch is
                // lost.
                if let Some(inflight) = self.inflight.get_mut(&reqid) {
                    inflight.blocked_on_epoch = Some(current - 1);
                }
                ctx.metrics()
                    .bump(counter!("client.stale_epoch_retries"), 1);
                ctx.send(
                    self.monitor,
                    MonMsg::Get {
                        map: SERVICE_MAP_OSD.to_string(),
                    },
                );
            }
            Err(OsdError::NotPrimary) | Err(OsdError::NotReady) => {
                // Mis-routed: our map disagrees with the cluster's (the OSD
                // may be ahead of us, or we raced a failover). Refresh and
                // retry on any newer epoch. `map_epoch` is informational.
                let _ = map_epoch;
                if let Some(inflight) = self.inflight.get_mut(&reqid) {
                    inflight.blocked_on_epoch = Some(self.map.epoch);
                }
                ctx.send(
                    self.monitor,
                    MonMsg::Get {
                        map: SERVICE_MAP_OSD.to_string(),
                    },
                );
            }
            other => self.complete(ctx, reqid, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != RETRY_TOKEN_BASE {
            return;
        }
        while let Some(reqid) = self.retries.pop_due(ctx) {
            let Some(inflight) = self.inflight.get_mut(&reqid) else {
                continue;
            };
            // The attempt (or its reply, or the map fetch) was lost or is
            // too slow; unblock and go again. dispatch() enforces the
            // deadline.
            inflight.retry_at = None;
            inflight.blocked_on_epoch = None;
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
