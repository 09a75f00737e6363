//! The capability (lease) state machine — the Shared Resource interface.
//!
//! One `CapState` guards one inode. A single client may hold an exclusive,
//! cacheable capability; competing clients queue. The *sharing policy*
//! decides when the holder is told to yield:
//!
//! * **best-effort** (Ceph's default, paper Fig. 5a) — recall as soon as a
//!   competitor arrives; the system spends most of its time re-distributing
//!   the capability.
//! * **delay** (Fig. 5b) — the holder keeps the capability for a bounded
//!   hold time even under contention, amortising the exchange.
//! * **quota** (Fig. 5c) — the grant carries an operation budget; the
//!   holder yields after consuming it (enforced holder-side, with the hold
//!   time as a server-side backstop).
//!
//! The state machine is pure — methods consume events and return actions —
//! so policy behaviour is unit-testable without a simulator.

use std::collections::VecDeque;

use mala_sim::{NodeId, SimDuration, SimTime};

/// How long after an unanswered recall the server repeats it. A recall can
/// race ahead of its grant on the wire (the client then ignores it), and a
/// holder can crash; re-recalling bounds both.
pub const RECALL_RETRY: SimDuration = SimDuration::from_millis(100);

/// How long a recall may stay unanswered in total before the holder is
/// declared dead and evicted — the paper's "a timeout is used to determine
/// when a client should be considered unavailable" (§5.2.1).
pub const HOLDER_TIMEOUT: SimDuration = SimDuration::from_millis(1500);

pub use crate::types::CapPolicyConfig as CapPolicy;

/// An action the server must take on behalf of the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapAction {
    /// Send a grant to `to` (it is now the holder).
    Grant {
        /// New holder.
        to: NodeId,
    },
    /// Ask `from` to yield the capability.
    Recall {
        /// Current holder.
        from: NodeId,
    },
}

/// Capability state for one inode.
#[derive(Debug, Clone)]
pub struct CapState {
    policy: CapPolicy,
    holder: Option<NodeId>,
    granted_at: SimTime,
    recall_sent: Option<SimTime>,
    /// When the current recall round started (for the holder timeout).
    first_recall_at: Option<SimTime>,
    waiters: VecDeque<NodeId>,
}

impl CapState {
    /// Creates an unheld capability with `policy`.
    pub fn new(policy: CapPolicy) -> CapState {
        CapState {
            policy,
            holder: None,
            granted_at: SimTime::ZERO,
            recall_sent: None,
            first_recall_at: None,
            waiters: VecDeque::new(),
        }
    }

    /// Creates the reconnect-window state a promoted standby installs for a
    /// capability its predecessor had granted: `holder` is presumed to still
    /// cache the state, a recall is considered outstanding as of `now`, and
    /// the [`HOLDER_TIMEOUT`] clock is already running — a holder that never
    /// reasserts itself is evicted by the ordinary `on_tick` path.
    pub fn reconnect(policy: CapPolicy, holder: NodeId, now: SimTime) -> CapState {
        CapState {
            policy,
            holder: Some(holder),
            granted_at: now,
            recall_sent: Some(now),
            first_recall_at: Some(now),
            waiters: VecDeque::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> CapPolicy {
        self.policy
    }

    /// Replaces the policy (applies from the next grant).
    pub fn set_policy(&mut self, policy: CapPolicy) {
        self.policy = policy;
    }

    /// Current holder, if any.
    pub fn holder(&self) -> Option<NodeId> {
        self.holder
    }

    /// Number of queued waiters.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// A client asks for the capability.
    pub fn request(&mut self, client: NodeId, now: SimTime) -> Vec<CapAction> {
        match self.holder {
            None => {
                self.grant_to(client, now);
                vec![CapAction::Grant { to: client }]
            }
            Some(holder) if holder == client => {
                // Refresh: re-grant in place (restarts the hold clock).
                self.grant_to(client, now);
                vec![CapAction::Grant { to: client }]
            }
            Some(holder) => {
                if !self.waiters.contains(&client) {
                    self.waiters.push_back(client);
                }
                // Contention: the policy decides when to disturb the holder.
                let recall_due = match self.policy.max_hold {
                    None => true, // best-effort: immediately
                    Some(hold) => now.saturating_since(self.granted_at) >= hold,
                };
                if recall_due && self.recall_sent.is_none() {
                    self.recall_sent = Some(now);
                    self.first_recall_at.get_or_insert(now);
                    vec![CapAction::Recall { from: holder }]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// The holder releases (voluntarily or after a recall).
    pub fn release(&mut self, client: NodeId, now: SimTime) -> Vec<CapAction> {
        if self.holder != Some(client) {
            // A non-holder release is a stale message: the cap was already
            // reassigned. Drop it.
            return Vec::new();
        }
        self.holder = None;
        self.recall_sent = None;
        self.first_recall_at = None;
        if let Some(next) = self.waiters.pop_front() {
            self.grant_to(next, now);
            vec![CapAction::Grant { to: next }]
        } else {
            Vec::new()
        }
    }

    /// Removes a crashed client from the state machine; if it held the
    /// capability the next waiter is granted (the paper handles sequencer-
    /// holder failure "with a timeout"; the server calls this when a
    /// session dies).
    pub fn evict(&mut self, client: NodeId, now: SimTime) -> Vec<CapAction> {
        self.waiters.retain(|w| *w != client);
        if self.holder == Some(client) {
            self.release(client, now)
        } else {
            Vec::new()
        }
    }

    /// Periodic policy check: recalls an over-held capability under
    /// contention, and repeats unanswered recalls after [`RECALL_RETRY`].
    pub fn on_tick(&mut self, now: SimTime) -> Vec<CapAction> {
        let Some(holder) = self.holder else {
            return Vec::new();
        };
        // With no waiters and no recall round in progress there is nothing
        // to do. A recall round without waiters still runs its course: the
        // reconnect window after failover recalls every journaled holder
        // regardless of contention, and silence must end in eviction.
        if self.waiters.is_empty() && self.recall_sent.is_none() {
            return Vec::new();
        }
        if let Some(sent_at) = self.recall_sent {
            // A holder that has ignored recalls for the whole timeout is
            // considered dead: evict it so waiters make progress.
            if let Some(first) = self.first_recall_at {
                if now.saturating_since(first) >= HOLDER_TIMEOUT {
                    return self.evict(holder, now);
                }
            }
            if now.saturating_since(sent_at) >= RECALL_RETRY {
                self.recall_sent = Some(now);
                return vec![CapAction::Recall { from: holder }];
            }
            return Vec::new();
        }
        let due = match self.policy.max_hold {
            None => true,
            Some(hold) => now.saturating_since(self.granted_at) >= hold,
        };
        if due {
            self.recall_sent = Some(now);
            self.first_recall_at.get_or_insert(now);
            vec![CapAction::Recall { from: holder }]
        } else {
            Vec::new()
        }
    }

    fn grant_to(&mut self, client: NodeId, now: SimTime) {
        self.holder = Some(client);
        self.granted_at = now;
        self.recall_sent = None;
        self.first_recall_at = None;
        self.waiters.retain(|w| *w != client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_sim::SimDuration;

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const C: NodeId = NodeId(3);

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1000)
    }

    #[test]
    fn free_cap_grants_immediately() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        assert_eq!(cap.request(A, t(0)), vec![CapAction::Grant { to: A }]);
        assert_eq!(cap.holder(), Some(A));
    }

    #[test]
    fn best_effort_recalls_on_contention() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        let actions = cap.request(B, t(1));
        assert_eq!(actions, vec![CapAction::Recall { from: A }]);
        // Second competitor queues without a duplicate recall.
        assert!(cap.request(C, t(2)).is_empty());
        assert_eq!(cap.waiting(), 2);
        // Release grants FIFO.
        assert_eq!(cap.release(A, t(3)), vec![CapAction::Grant { to: B }]);
        assert_eq!(cap.holder(), Some(B));
        assert_eq!(cap.waiting(), 1);
    }

    #[test]
    fn delay_policy_defers_recall_until_hold_expires() {
        let hold = SimDuration::from_millis(250);
        let mut cap = CapState::new(CapPolicy::delay(hold));
        cap.request(A, t(0));
        // Contention at t=10ms: no recall yet.
        assert!(cap.request(B, t(10)).is_empty());
        assert!(cap.on_tick(t(100)).is_empty());
        // At 250 ms the recall fires.
        assert_eq!(cap.on_tick(t(250)), vec![CapAction::Recall { from: A }]);
        // Not repeated until the retry window elapses...
        assert!(cap.on_tick(t(300)).is_empty());
        // ... after which an unanswered recall is resent.
        assert_eq!(cap.on_tick(t(360)), vec![CapAction::Recall { from: A }]);
    }

    #[test]
    fn late_request_past_hold_recalls_immediately() {
        let mut cap = CapState::new(CapPolicy::delay(SimDuration::from_millis(100)));
        cap.request(A, t(0));
        let actions = cap.request(B, t(500));
        assert_eq!(actions, vec![CapAction::Recall { from: A }]);
    }

    #[test]
    fn refresh_by_holder_restarts_clock() {
        let mut cap = CapState::new(CapPolicy::delay(SimDuration::from_millis(100)));
        cap.request(A, t(0));
        cap.request(A, t(90)); // refresh
        assert!(cap.request(B, t(150)).is_empty(), "clock restarted at 90ms");
        assert_eq!(cap.on_tick(t(190)), vec![CapAction::Recall { from: A }]);
    }

    #[test]
    fn release_by_non_holder_is_ignored() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        assert!(cap.release(B, t(1)).is_empty());
        assert_eq!(cap.holder(), Some(A));
    }

    #[test]
    fn release_without_waiters_leaves_cap_free() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        assert!(cap.release(A, t(1)).is_empty());
        assert_eq!(cap.holder(), None);
        assert_eq!(cap.request(B, t(2)), vec![CapAction::Grant { to: B }]);
    }

    #[test]
    fn evict_holder_promotes_waiter() {
        let mut cap = CapState::new(CapPolicy::delay(SimDuration::from_millis(250)));
        cap.request(A, t(0));
        cap.request(B, t(1));
        let actions = cap.evict(A, t(2));
        assert_eq!(actions, vec![CapAction::Grant { to: B }]);
    }

    #[test]
    fn evict_waiter_removes_from_queue() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        cap.request(B, t(1));
        cap.request(C, t(2));
        cap.evict(B, t(3));
        assert_eq!(cap.release(A, t(4)), vec![CapAction::Grant { to: C }]);
    }

    #[test]
    fn policy_change_applies_to_later_grants() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        cap.set_policy(CapPolicy::delay(SimDuration::from_millis(50)));
        // Existing holder still under old recall semantics via on_tick? The
        // policy field is read live, so contention now defers.
        assert!(cap.request(B, t(1)).is_empty());
        assert_eq!(cap.on_tick(t(51)), vec![CapAction::Recall { from: A }]);
    }

    #[test]
    fn round_robin_alternation_under_contention() {
        // Two clients that re-request after each release alternate fairly.
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        cap.request(B, t(1));
        let mut order = vec![A];
        let mut now = 2;
        for _ in 0..6 {
            let holder = cap.holder().unwrap();
            let actions = cap.release(holder, t(now));
            now += 1;
            let CapAction::Grant { to } = actions[0] else {
                panic!()
            };
            order.push(to);
            // Previous holder immediately re-contends.
            cap.request(holder, t(now));
            now += 1;
        }
        assert_eq!(order, vec![A, B, A, B, A, B, A]);
    }

    #[test]
    fn reconnect_state_evicts_silent_holder_without_waiters() {
        let mut cap = CapState::reconnect(CapPolicy::best_effort(), A, t(0));
        assert_eq!(cap.holder(), Some(A));
        // Recalls are re-sent while the holder stays silent ...
        assert_eq!(cap.on_tick(t(100)), vec![CapAction::Recall { from: A }]);
        // ... and silence past the holder timeout ends in eviction even
        // though nobody is waiting.
        assert!(cap.on_tick(t(1600)).is_empty());
        assert_eq!(cap.holder(), None);
    }

    #[test]
    fn reconnect_state_accepts_reasserting_holder() {
        let mut cap = CapState::reconnect(CapPolicy::best_effort(), A, t(0));
        // The holder reasserts by re-requesting: granted in place.
        assert_eq!(cap.request(A, t(50)), vec![CapAction::Grant { to: A }]);
        assert_eq!(cap.holder(), Some(A));
        assert!(
            cap.on_tick(t(2000)).is_empty(),
            "no eviction after reassert"
        );
    }

    #[test]
    fn dead_holder_is_evicted_after_timeout() {
        let mut cap = CapState::new(CapPolicy::best_effort());
        cap.request(A, t(0));
        // B contends; A never answers any recall.
        cap.request(B, t(1));
        let mut now = 1;
        let mut granted_to_b = false;
        for _ in 0..40 {
            now += 100;
            for action in cap.on_tick(t(now)) {
                if action == (CapAction::Grant { to: B }) {
                    granted_to_b = true;
                }
            }
        }
        assert!(granted_to_b, "waiter must eventually be granted");
        assert!(now <= 1 + 100 * 40, "eviction must happen within the sweep");
        assert_eq!(cap.holder(), Some(B));
        // The evicted client's stale release is ignored.
        assert!(cap.release(A, t(now + 1)).is_empty());
        assert_eq!(cap.holder(), Some(B));
    }
}
