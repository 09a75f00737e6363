//! Cluster assembly from the public constructors, with every actor inside
//! a [`Timed`] wrapper. Node-id layout follows `malacology::cluster`:
//! monitors `0..`, OSDs `10..`, MDS ranks `1000..`, standbys `1500..`,
//! clients `2000..`.
//!
//! Nothing here panics on a slow or failed operation: a rep that cannot
//! set up returns an error and the run exits non-zero.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use mala_consensus::{MapUpdate, MonConfig, MonMsg, Monitor};
use mala_mantle::MantleBalancer;
use mala_mds::{Balancer, FileType, Ino, Mds, MdsConfig, MdsMapView, MdsMsg, NoBalancer};
use mala_rados::{JournalSet, ObjectId, Osd, OsdConfig, OsdMapView, PoolInfo, RadosClient};
use mala_sim::{Actor, Context, NodeId, Sim, SimDuration, SimTime};
use mala_zlog::log::ZlogOut;
use mala_zlog::{zlog_interface_update, AppendResult, ZlogClient, ZlogConfig};
use malacology::interfaces::{durability, file_type};

use crate::timed::{DecideLog, HostStats, Role, Timed, TimedBalancer};

/// Shape of a cluster.
#[derive(Clone)]
pub struct Topology {
    pub monitors: u32,
    pub osds: u32,
    pub mds_ranks: u32,
    pub standby_mds: u32,
    /// `(name, pg_num, replicas)`.
    pub pools: Vec<(&'static str, u32, u32)>,
    pub mds_config: MdsConfig,
    /// `MantleBalancer::new()` on every rank (policy arrives through the
    /// monitor) instead of `NoBalancer`.
    pub mantle: bool,
    /// Install the scripted `zlog` object class at bootstrap.
    pub zlog_class: bool,
    /// OSDs keep a write-ahead journal outside the actor, so a restart
    /// replays it. Only the fault workload pays for that: the journal
    /// holds a whole-object record per mutation.
    pub osd_journals: bool,
}

impl Topology {
    /// The common ZLog cluster: 1 monitor, 6 unjournaled OSDs, pools
    /// `zlogpool` (64 PGs ×2) and `meta` (8 PGs ×2), `mds_ranks` journaling
    /// MDS ranks with `NoBalancer`, the `zlog` class installed.
    pub fn zlog(mds_ranks: u32) -> Topology {
        Topology {
            monitors: 1,
            osds: 6,
            mds_ranks,
            standby_mds: 0,
            pools: vec![("zlogpool", 64, 2), ("meta", 8, 2)],
            mds_config: MdsConfig {
                journal: true,
                journal_sync: true,
                ..MdsConfig::default()
            },
            mantle: false,
            zlog_class: true,
            osd_journals: false,
        }
    }
}

pub const MON: NodeId = NodeId(0);

pub fn osd_node(i: u32) -> NodeId {
    NodeId(10 + i)
}

pub fn mds_node(rank: u32) -> NodeId {
    NodeId(1000 + rank)
}

pub fn standby_node(i: u32) -> NodeId {
    NodeId(1500 + i)
}

/// Collects `Created` replies for namespace set-up; also the sender of
/// administrative MDS messages.
#[derive(Default)]
pub struct Admin {
    created: HashMap<u64, Result<Ino, String>>,
}

impl Actor for Admin {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Box<dyn Any>) {
        if let Ok(msg) = msg.downcast::<MdsMsg>() {
            if let MdsMsg::Created { reqid, result } = *msg {
                self.created
                    .insert(reqid, result.map_err(|e| format!("{e:?}")));
            }
        }
    }
}

/// A running simulated cluster plus the measurement state shared by its
/// wrappers.
pub struct Cluster {
    pub sim: Sim,
    pub stats: Rc<HostStats>,
    pub decide_log: DecideLog,
    pub journals: JournalSet,
    pub topo: Topology,
    /// Simulated time from boot until every daemon held the bootstrap maps.
    pub settle: SimDuration,
    admin: NodeId,
    rados: NodeId,
    next_client: u32,
    next_reqid: u64,
    mon_seq: Rc<Cell<u64>>,
}

impl Cluster {
    /// Builds, bootstraps and settles a cluster. `traced` turns on the
    /// program's span collection and the wrappers' host-clock reads.
    pub fn build(seed: u64, topo: Topology, traced: bool) -> Result<Cluster, String> {
        let stats = HostStats::new(traced);
        let decide_log = DecideLog::default();
        let journals = JournalSet::new();
        let mut sim = Sim::new(seed);
        sim.tracer_mut().set_enabled(traced);

        let mons: Vec<NodeId> = (0..topo.monitors).map(NodeId).collect();
        for rank in 0..topo.monitors {
            let mon = Monitor::new(rank, mons.clone(), MonConfig::default());
            sim.add_node(mons[rank as usize], Timed::new(mon, Role::Mon, &stats));
        }
        for i in 0..topo.osds {
            let journals = topo.osd_journals.then_some(&journals);
            sim.add_node(osd_node(i), new_osd(i, journals, &stats));
        }
        let balancer = |topo: &Topology| -> Box<dyn Balancer> {
            if topo.mantle {
                Box::new(TimedBalancer::new(
                    Box::new(MantleBalancer::new()),
                    &decide_log,
                ))
            } else {
                Box::new(NoBalancer)
            }
        };
        for rank in 0..topo.mds_ranks {
            let mds = Mds::new(rank, MON, topo.mds_config.clone(), balancer(&topo));
            sim.add_node(mds_node(rank), Timed::new(mds, Role::Mds, &stats));
        }
        for i in 0..topo.standby_mds {
            let mds = Mds::standby(MON, topo.mds_config.clone(), balancer(&topo));
            sim.add_node(standby_node(i), Timed::new(mds, Role::Mds, &stats));
        }
        let admin = NodeId(2000);
        sim.add_node(admin, Timed::new(Admin::default(), Role::Harness, &stats));
        let rados = NodeId(2001);
        sim.add_node(
            rados,
            Timed::new(RadosClient::new(MON), Role::Harness, &stats),
        );

        let mut updates = Vec::new();
        for (name, pg_num, replicas) in &topo.pools {
            let info = PoolInfo {
                pg_num: *pg_num,
                replicas: *replicas,
            };
            updates.push(OsdMapView::update_pool(name, info));
        }
        for i in 0..topo.osds {
            updates.push(OsdMapView::update_osd(i, osd_node(i), true));
        }
        for rank in 0..topo.mds_ranks {
            updates.push(MdsMapView::update_rank(rank, mds_node(rank), true));
        }
        if topo.zlog_class {
            updates.push(zlog_interface_update());
        }
        sim.inject(MON, MonMsg::Submit { seq: 1, updates });

        let (osds, zlog_class) = (topo.osds, topo.zlog_class);
        let settled = sim.run_until_pred(SimTime::ZERO + SimDuration::from_secs(30), |s| {
            (0..osds).all(|i| {
                let osd = &s.actor::<Timed<Osd>>(osd_node(i)).inner;
                osd.map_epoch() > 0 && (!zlog_class || osd.interfaces_epoch() > 0)
            })
        });
        if !settled {
            return Err("bootstrap maps did not reach every OSD in 30 sim-s".into());
        }
        let settle = sim.now().since(SimTime::ZERO);
        // Let gossip, MDS map adoption and standby registration quiesce.
        sim.run_for(SimDuration::from_secs(1));
        Ok(Cluster {
            sim,
            stats,
            decide_log,
            journals,
            topo,
            settle,
            admin,
            rados,
            next_client: 2002,
            next_reqid: 1,
            mon_seq: Rc::new(Cell::new(2)),
        })
    }

    /// Adds a client-side actor on a fresh node.
    pub fn add_client<A: Actor>(&mut self, actor: A) -> NodeId {
        let node = NodeId(self.next_client);
        self.next_client += 1;
        self.sim
            .add_node(node, Timed::new(actor, Role::Client, &self.stats));
        node
    }

    /// Adds a ZLog client for log `name` (home rank 0, stripe width 4).
    pub fn add_zlog(
        &mut self,
        name: &str,
        pool: &str,
        make: impl FnOnce(ZlogConfig) -> ZlogClient,
    ) -> NodeId {
        let config = ZlogConfig {
            name: name.to_string(),
            pool: pool.to_string(),
            stripe_width: 4,
            mds_nodes: (0..self.topo.mds_ranks).map(|r| (r, mds_node(r))).collect(),
            home_rank: 0,
            monitor: MON,
        };
        self.add_client(make(config))
    }

    /// A handle that submits monitor updates from inside nemesis callbacks.
    pub fn submitter(&self) -> impl Fn(&mut Sim, Vec<MapUpdate>) {
        let mon_seq = Rc::clone(&self.mon_seq);
        move |sim, updates| {
            let seq = mon_seq.get();
            mon_seq.set(seq + 1);
            sim.inject(MON, MonMsg::Submit { seq, updates });
        }
    }

    /// Submits monitor updates without waiting for the commit.
    pub fn submit(&mut self, updates: Vec<MapUpdate>) {
        self.submitter()(&mut self.sim, updates);
    }

    /// Sends `msg` from the admin client to `to`.
    pub fn admin_send(&mut self, to: NodeId, msg: MdsMsg) {
        self.sim
            .with_actor::<Timed<Admin>, _>(self.admin, move |_, ctx| ctx.send(to, msg));
    }

    /// Creates a namespace entry on rank 0 and waits for the reply.
    pub fn create(&mut self, parent: &str, name: &str, ftype: FileType) -> Result<Ino, String> {
        let reqid = self.next_reqid;
        self.next_reqid += 1;
        self.admin_send(mds_node(0), file_type::create(reqid, parent, name, ftype));
        let admin = self.admin;
        let deadline = self.sim.now() + SimDuration::from_secs(10);
        self.sim.run_until_pred(deadline, |s| {
            s.actor::<Timed<Admin>>(admin)
                .inner
                .created
                .contains_key(&reqid)
        });
        self.sim
            .actor_mut::<Timed<Admin>>(admin)
            .inner
            .created
            .remove(&reqid)
            .unwrap_or_else(|| Err("no reply in 10 sim-s".into()))
            .map_err(|e| format!("create {parent}/{name}: {e}"))
    }

    /// Writes a whole object through the harness RADOS client and waits.
    pub fn put_object(&mut self, pool: &str, name: &str, data: Vec<u8>) -> Result<(), String> {
        let oid = ObjectId::new(pool, name);
        let rados = self.rados;
        let reqid = self
            .sim
            .with_actor::<Timed<RadosClient>, _>(rados, move |c, ctx| {
                c.inner.submit(ctx, oid, durability::put_blob(data))
            });
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        self.sim.run_until_pred(deadline, |s| {
            s.actor::<Timed<RadosClient>>(rados)
                .inner
                .is_completed(reqid)
        });
        match self
            .sim
            .actor_mut::<Timed<RadosClient>>(rados)
            .inner
            .take_completed(reqid)
        {
            Some(ev) => ev
                .result
                .map(|_| ())
                .map_err(|e| format!("put {name}: {e:?}")),
            None => Err(format!("put {name}: no reply in 30 sim-s")),
        }
    }
}

/// OSD `i` as at boot; with `journals`, also as after a restart, which
/// replays the journal the `JournalSet` kept.
pub fn new_osd(i: u32, journals: Option<&JournalSet>, stats: &Rc<HostStats>) -> Timed<Osd> {
    let osd = match journals {
        Some(set) => Osd::with_journal(i, MON, OsdConfig::default(), set.journal(osd_node(i))),
        None => Osd::new(i, MON, OsdConfig::default()),
    };
    Timed::new(osd, Role::Osd, stats)
}

/// Runs one client op to completion outside the measured window; unlike
/// `mala_zlog::log::run_op` it returns an error instead of asserting.
pub fn zlog_op(
    sim: &mut Sim,
    node: NodeId,
    timeout: SimDuration,
    f: impl FnOnce(&mut ZlogClient, &mut Context<'_>) -> u64,
) -> Result<ZlogOut, String> {
    let op = sim.with_actor::<Timed<ZlogClient>, _>(node, |c, ctx| f(&mut c.inner, ctx));
    let deadline = sim.now() + timeout;
    sim.run_until_pred(deadline, |s| {
        s.actor::<Timed<ZlogClient>>(node).inner.is_done(op)
    });
    match sim
        .actor_mut::<Timed<ZlogClient>>(node)
        .inner
        .take_result(op)
    {
        Some(AppendResult::Ok(out)) => Ok(out),
        Some(AppendResult::Err(e)) => Err(format!("client {node} op {op}: {e}")),
        None => Err(format!("client {node} op {op}: not done after {timeout}")),
    }
}
