//! MDS liveness: beacons and their deadlines, the leader's reaping of a
//! silent rank, standby registration, and the actions the leader proposes
//! itself.

use super::*;

/// Seq namespace for transactions the leader originates itself (MDS
/// liveness actions); keeps their txids clear of harness-injected seqs,
/// which share the monitor's own NodeId as submitter.
pub(super) const SELF_SEQ_BASE: u64 = 1 << 32;

/// What the monitor knows of one MDS daemon's liveness.
pub(super) struct MdsLiveness {
    /// When its last beacon arrived.
    beacon: SimTime,
    /// When its entry in [`Monitor::mds_deadlines`] is due, if it has one.
    deadline: Option<SimTime>,
}

/// The counter of a liveness action the leader proposed, told by its first
/// update: a promotion, a mark-down or a standby registration.
pub(super) fn liveness_counter(tx: &Tx) -> Option<&'static CounterName> {
    let first = tx.updates.first()?;
    let entry = first.value.as_deref().and_then(MdsEntry::parse);
    Some(match (MapKey::parse(&first.key), entry) {
        (MapKey::Mds(_), Some(MdsEntry { up: true, .. })) => counter!("mon.mds_failovers"),
        (MapKey::Mds(_), _) => counter!("mon.mds_marked_down"),
        _ => counter!("mon.mds_standbys_registered"),
    })
}

impl Monitor {
    /// Proposes the leader's own mdsmap change (an MDS liveness action) at
    /// once: a client's mdsmap submit waits for the proposal interval, a
    /// failover does not. The action is known by the key of its first
    /// update: proposed again before a commit touched that key, it goes
    /// out under its first seq, so if both proposals are chosen the change
    /// applies once. Every key it writes counts as proposed, so a standby
    /// being promoted is not promoted into a second rank meanwhile. Acks
    /// come back to this monitor and are ignored.
    fn submit_self(&mut self, ctx: &mut Context<'_>, updates: Vec<MapUpdate>) {
        let first = updates
            .first()
            .and_then(|up| self.mds_proposed.get(&up.key));
        let seq = match first {
            Some(&(_, seq)) => seq,
            None => {
                let seq = self.self_seq;
                self.self_seq += 1;
                seq
            }
        };
        for up in &updates {
            self.mds_proposed.insert(up.key.clone(), (ctx.now(), seq));
        }
        let tx = Tx {
            client: self.peers[self.rank as usize],
            seq,
            updates,
        };
        self.propose(ctx, vec![tx]);
    }

    /// Whether the leader proposed a change to mdsmap `key` less than one
    /// grace ago that no commit has touched yet.
    fn proposed_lately(&self, key: &str, now: SimTime) -> bool {
        self.mds_proposed
            .get(key)
            .is_some_and(|(at, _)| now.saturating_since(*at) < self.config.mds_beacon_grace)
    }

    /// Records a beacon from `node` and moves its deadline to one grace
    /// from now.
    pub(super) fn beacon(&mut self, ctx: &mut Context<'_>, node: NodeId) {
        let now = ctx.now();
        self.mds_beacons
            .entry(node)
            .and_modify(|l| l.beacon = now)
            .or_insert(MdsLiveness {
                beacon: now,
                deadline: None,
            });
        self.arm_mds(ctx, node, now + self.config.mds_beacon_grace);
    }

    /// Arms `node`'s deadline at `at`, if the node has ever beaconed.
    fn arm_mds(&mut self, ctx: &mut Context<'_>, node: NodeId, at: SimTime) {
        if let Some(l) = self.mds_beacons.get_mut(&node) {
            self.mds_deadlines.arm(ctx, node, l.deadline, at);
            l.deadline = Some(at);
        }
    }

    /// MDS liveness reaping (leader only): ranks whose daemons have gone
    /// silent past the beacon grace are marked down with a Paxos-committed
    /// MDS-map epoch bump, and a registered standby — if one is alive — is
    /// promoted into the vacant rank. Runs when an MDS deadline passes and
    /// when an mdsmap commit lands; each action is proposed at once, and
    /// re-arms its rank's node so that a commit that has not landed one
    /// grace later is proposed again.
    pub(super) fn reap_mds(&mut self, ctx: &mut Context<'_>) {
        if !self.paxos.is_leader() {
            return;
        }
        let now = ctx.now();
        let grace = self.config.mds_beacon_grace;
        let fresh = |beacons: &BTreeMap<NodeId, MdsLiveness>, node: NodeId| {
            beacons
                .get(&node)
                .is_some_and(|l| now.saturating_since(l.beacon) < grace)
        };
        let view = self.mdsmap();
        let mut standbys = view.standbys;
        standbys.retain(|n| {
            fresh(&self.mds_beacons, *n) && !self.proposed_lately(&standby_key(*n), now)
        });
        // Ranks ascending: the lowest failed rank is filled first.
        for (rank, entry) in view.ranks {
            if self.proposed_lately(&MdsEntry::key(rank), now) {
                continue;
            }
            let node = entry.node;
            let silent = self.mds_beacons.contains_key(&node) && !fresh(&self.mds_beacons, node);
            if entry.up && !silent {
                continue;
            }
            if !entry.up && standbys.is_empty() {
                continue;
            }
            let (updates, line) = match standbys.pop() {
                Some(standby) => (
                    vec![
                        MdsMapView::update_rank(rank, standby, true),
                        MapUpdate::del(SERVICE_MAP_MDS, &standby_key(standby)),
                    ],
                    format!("mds.{rank} on {node} failed; promoting standby {standby}"),
                ),
                None => (
                    vec![MdsMapView::update_rank(rank, node, false)],
                    format!("mds.{rank} on {node} missed beacons; marked down (no standby)"),
                ),
            };
            self.cluster_log
                .push((now, format!("mon.{}", self.rank), line));
            self.submit_self(ctx, updates);
            self.arm_mds(ctx, node, now + grace);
        }
    }

    /// Standby registration: a beaconing standby not yet in the map gets a
    /// standby entry committed (leader only).
    pub(super) fn register_standby(&mut self, ctx: &mut Context<'_>, node: NodeId) {
        if !self.paxos.is_leader() {
            return;
        }
        let key = standby_key(node);
        if self.proposed_lately(&key, ctx.now()) {
            return;
        }
        // A node serving a rank (e.g. just promoted, beacon not yet switched
        // over) must not be registered as a standby too. A rank marked down
        // does not hold its node: the daemon may come back as a standby.
        let view = self.mdsmap();
        let serving = view.ranks.values().any(|e| e.up && e.node == node);
        if view.standbys.contains(&node) || serving {
            return;
        }
        let update = MapUpdate::set(SERVICE_MAP_MDS, &key, b"1".to_vec());
        self.submit_self(ctx, vec![update]);
    }

    pub(super) fn on_mds_deadline(&mut self, ctx: &mut Context<'_>) {
        let leading = self.paxos.is_leader();
        let again = ctx.now() + self.config.mds_beacon_grace;
        let mut due = false;
        while let Some(node) = self.mds_deadlines.pop_due(ctx) {
            if let Some(l) = self.mds_beacons.get_mut(&node) {
                l.deadline = None;
            }
            // A follower cannot reap; it looks again one grace
            // later, so a node that went silent while this monitor
            // followed is reaped once it leads again.
            if !leading {
                self.arm_mds(ctx, node, again);
            }
            due = true;
        }
        if due {
            self.reap_mds(ctx);
        }
    }
}
