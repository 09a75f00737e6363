//! Load balancing: the balancing tick's load sample and share, the
//! balancer's exports, and the read of the Mantle policy that the
//! monitor's map points at.

use super::journal::read_whole;
use super::*;

impl Mds {
    pub(super) fn coherence_now(&self, now: SimTime) -> f64 {
        let settle = self.config.costs.settle.as_secs_f64();
        if settle <= 0.0 {
            return 0.0;
        }
        let age = now.saturating_since(self.coherence_spike_at).as_secs_f64();
        (self.coherence_spike * (1.0 - age / settle)).max(0.0)
    }

    fn my_sample(&self, ctx: &mut Context<'_>, interval_s: f64) -> LoadSample {
        let req_rate = self.served_this_tick as f64 / interval_s.max(1e-9);
        // CPU proxy: proportional to request rate with multiplicative noise
        // (the "dynamic and unpredictable" metric of §6.2.1).
        let noise: f64 = ctx.rng().gen_range(0.6..1.4);
        LoadSample {
            rank: self.rank,
            req_rate,
            cpu: (req_rate / 100.0).min(100.0) * noise,
            coherence: self.coherence_now(ctx.now()),
        }
    }

    pub(super) fn balance_tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let interval_s = now.saturating_since(self.last_tick_at).as_secs_f64();
        self.last_tick_at = now;
        let sample = self.my_sample(ctx, interval_s);
        // Refresh per-inode rates.
        self.last_rates = self
            .per_inode_this_tick
            .drain()
            .map(|(ino, n)| (ino, n as f64 / interval_s.max(1e-9)))
            .collect();
        self.served_this_tick = 0;
        let me = self.rank;
        ctx.metrics()
            .observe(&format!("mds.load.{me}"), now, sample.total());
        // Heartbeat to peers.
        for node in self.peers() {
            let sample = sample.clone();
            ctx.send(node, MdsPeer::LoadShare { sample });
        }
        self.peer_loads.insert(self.rank, sample.clone());
        // Build the policy view.
        let mut loads: Vec<LoadSample> = self
            .mdsmap
            .view()
            .up_ranks()
            .iter()
            .filter_map(|r| self.peer_loads.get(r).cloned())
            .collect();
        loads.sort_by_key(|l| l.rank);
        let mut my_inodes: Vec<(Ino, f64, FileType)> = self
            .last_rates
            .iter()
            .filter(|(ino, _)| self.is_auth(**ino))
            .filter_map(|(ino, rate)| {
                self.namespace
                    .get(*ino)
                    .map(|inode| (*ino, *rate, inode.ftype.clone()))
            })
            .collect();
        // Rates come from wall-clock division and peer samples; a NaN or
        // infinite rate must not take down the balancer tick.
        my_inodes.retain(|(_, rate, _)| rate.is_finite());
        // Hottest first; `last_rates` iterates in hash order, so equal
        // rates are ordered by inode or the exports below would leave in it.
        my_inodes.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let view = BalanceView {
            whoami: self.rank,
            now,
            loads,
            my_inodes,
        };
        let exports = self.balancer.decide(&view);
        for line in self.balancer.take_log() {
            self.cluster_log(ctx, line);
        }
        for export in exports {
            if export.target != self.rank && self.mdsmap.view().node_of(export.target).is_some() {
                self.start_export(ctx, export);
            }
        }
        // Mantle policy refresh: the held policy map is read again each
        // tick, so a read that failed or timed out goes again (§5.1.2).
        self.refresh_policy(ctx);
    }

    /// Reads the policy the held Mantle map points at, if its version is
    /// one this daemon has not read yet.
    pub(super) fn refresh_policy(&mut self, ctx: &mut Context<'_>) {
        let snap = self.mantle.view();
        if !self.balancer.wants_policy() || snap.epoch <= self.mantle_version_seen {
            return;
        }
        let Some(object_name) = snap.entries.get("balancer") else {
            return;
        };
        let version = snap.epoch;
        let object_name = String::from_utf8_lossy(object_name).into_owned();
        // Dereference the version pointer: read the policy object from
        // RADOS, with a timeout of half the balancing tick (§5.1.2). A
        // read still out for an older version is given up on.
        self.forget_policy_fetch(ctx);
        let oid = ObjectId::new(META_POOL, object_name);
        let timeout = self.config.balance_interval.div(2);
        self.rados
            .submit_spanned(ctx, oid, read_whole(), None, StoreWait::Policy, timeout);
        self.mantle_version_seen = version;
    }

    /// Gives up the policy read in flight, if there is one — superseded,
    /// or the daemon was deposed: its request is cancelled, and its
    /// version is read again on a later tick.
    pub(super) fn forget_policy_fetch(&mut self, ctx: &mut Context<'_>) {
        if self.rados.has_waiter(&StoreWait::Policy) {
            self.rados.cancel_where(ctx, |w| *w == StoreWait::Policy);
            self.mantle_version_seen = self.mantle_version_seen.saturating_sub(1);
        }
    }

    /// The policy read completed: install what it returned, or give its
    /// version up to be read again on a later tick.
    pub(super) fn on_policy_read(&mut self, ctx: &mut Context<'_>, result: StoreResult) {
        let data = match result.map(|results| results.into_iter().next()) {
            Ok(Some(OpResult::Data(data))) => data,
            other => {
                let line = if matches!(other, Err(OsdError::Timeout)) {
                    // §5.1.2: the synchronous policy read gave up.
                    ctx.metrics().bump(counter!("mds.mantle_fetch_timeouts"), 1);
                    "mantle: Connection Timeout reading balancer policy".to_string()
                } else {
                    ctx.metrics().bump(counter!("mds.mantle_fetch_errors"), 1);
                    format!("mantle: reading balancer policy failed: {other:?}")
                };
                self.mantle_version_seen = self.mantle_version_seen.saturating_sub(1);
                self.cluster_log(ctx, line);
                return;
            }
        };
        let (source, version) = (String::from_utf8_lossy(&data), self.mantle_version_seen);
        match self.balancer.install_policy(&source, version) {
            Ok(()) => {
                self.cluster_log(ctx, format!("mantle: installed balancer v{version}"));
                ctx.metrics().bump(counter!("mds.mantle_installs"), 1);
            }
            Err(e) => {
                self.cluster_log(ctx, format!("mantle: balancer v{version} rejected: {e}"));
                ctx.metrics().bump(counter!("mds.mantle_install_errors"), 1);
            }
        }
    }
}
