use super::*;
use crate::osdmap::PoolInfo;
use crate::JournalSet;
use mala_consensus::MapUpdate;
use mala_sim::Sim;

type Entries = BTreeMap<String, Vec<u8>>;

const MON: NodeId = NodeId(0);
const OSD: NodeId = NodeId(10);
const PEER: NodeId = NodeId(11);

fn entries(updates: Vec<MapUpdate>) -> Entries {
    updates
        .into_iter()
        .filter_map(|u| Some((u.key, u.value?)))
        .collect()
}

/// OSD 0 (the one under test) and OSD 1, up or not, and one pool.
fn osdmap(peer_up: bool) -> Entries {
    entries(vec![
        OsdMapView::update_osd(0, OSD, true),
        OsdMapView::update_osd(1, PEER, peer_up),
        OsdMapView::update_pool(
            "data",
            PoolInfo {
                pg_num: 8,
                replicas: 2,
            },
        ),
    ])
}

/// An interfaces map of one scripted class answering `reply`.
fn interfaces(reply: &str) -> Entries {
    let source = format!("function get(input) return \"{reply}\" end");
    BTreeMap::from([("kv".to_string(), source.into_bytes())])
}

/// OSD 0 alone in a simulation, nothing run yet; it is driven through
/// [`Sim::with_actor`].
fn sim_with(osd: Osd) -> Sim {
    let mut sim = Sim::new(1);
    sim.add_node(OSD, osd);
    sim
}

/// Installs both maps at epoch 1, as news.
fn install_first_maps(sim: &mut Sim) {
    sim.with_actor::<Osd, _>(OSD, |osd, ctx| {
        assert!(osd.install_osdmap(ctx, 1, Rc::new(osdmap(true))));
        assert!(osd.install_interfaces(ctx, 1, Rc::new(interfaces("v1"))));
    });
}

fn counters(sim: &Sim) -> Vec<(String, u64)> {
    let metrics = sim.metrics().counters();
    metrics.map(|(name, n)| (name.to_string(), n)).collect()
}

/// The `(interfaces, osdmap)` a gossip payload carries.
type Maps = ((u64, Rc<Entries>), (u64, Rc<Entries>));

fn maps_of(msg: OsdMsg) -> Maps {
    match msg {
        OsdMsg::Gossip { interfaces, osdmap } => (interfaces, osdmap),
        other => panic!("not gossip: {other:?}"),
    }
}

#[test]
fn two_payloads_at_one_epoch_share_their_maps() {
    let mut sim = sim_with(Osd::new(0, MON, OsdConfig::default()));
    install_first_maps(&mut sim);
    let osd = sim.actor::<Osd>(OSD);
    let ((interfaces_epoch, interfaces), (map_epoch, map)) = maps_of(osd.gossip_payload());
    let ((_, interfaces_again), (_, map_again)) = maps_of(osd.gossip_payload());
    assert_eq!((interfaces_epoch, map_epoch), (1, 1));
    assert!(Rc::ptr_eq(&interfaces, &interfaces_again));
    assert!(Rc::ptr_eq(&map, &map_again));
    // They are the maps the OSD holds, not copies of them.
    assert!(Rc::ptr_eq(&interfaces, &osd.interfaces));
    assert!(Rc::ptr_eq(&map, &osd.map_entries));
}

/// Every place the view is assigned re-encodes the held entries: by
/// gossip, by the monitor's snapshot, and by a journal replay. So what
/// gossip carries is never a stale epoch, nor an entry the view skipped.
#[test]
fn held_entries_are_the_encoding_of_the_installed_view() {
    let journals = JournalSet::new();
    let journalled = || Osd::with_journal(0, MON, OsdConfig::default(), journals.journal(OSD));
    let mut sim = sim_with(journalled());
    install_first_maps(&mut sim);
    let held = |sim: &Sim| {
        let osd = sim.actor::<Osd>(OSD);
        assert_eq!(*osd.map_entries, osd.map.encode());
        let (_, (epoch, entries)) = maps_of(osd.gossip_payload());
        assert_eq!(epoch, osd.map_epoch());
        assert!(Rc::ptr_eq(&entries, &osd.map_entries));
        entries
    };
    let first = held(&sim);

    let mut next = osdmap(false);
    next.insert("osd.x".to_string(), b"garbage".to_vec());
    sim.with_actor::<Osd, _>(OSD, |osd, ctx| osd.install_osdmap(ctx, 2, Rc::new(next)));
    let second = held(&sim);
    assert!(!Rc::ptr_eq(&first, &second));
    assert_eq!(second["osd.1"], b"node=11,up=0,weight=100");
    assert!(!second.contains_key("osd.x"));

    // The monitor's map, whole: OSD 2 added, and the malformed entry
    // still there.
    let update = OsdMapView::update_osd(2, NodeId(12), true);
    let mut map = osdmap(false);
    map.insert(update.key, update.value.unwrap());
    map.insert("osd.x".to_string(), b"garbage".to_vec());
    let snapshot = MonMsg::Snapshot(MapSnapshot {
        map: SERVICE_MAP_OSD.to_string(),
        epoch: 3,
        entries: map,
    });
    sim.with_actor::<Osd, _>(OSD, |osd, ctx| osd.on_message(ctx, MON, Box::new(snapshot)));
    let third = held(&sim);
    assert_eq!(sim.actor::<Osd>(OSD).map_epoch(), 3);
    assert!(third.contains_key("osd.2") && !third.contains_key("osd.x"));

    sim.restart(OSD, journalled());
    sim.step();
    let replayed = held(&sim);
    assert_eq!(sim.actor::<Osd>(OSD).map_epoch(), 3);
    assert_eq!(replayed, third);
}

#[test]
fn gossip_at_an_equal_or_older_epoch_leaves_the_osd_as_it_was() {
    let mut sim = sim_with(Osd::new(0, MON, OsdConfig::default()));
    install_first_maps(&mut sim);
    let osd = sim.actor::<Osd>(OSD);
    let (held_map, held_ifaces) = (Rc::clone(&osd.map_entries), Rc::clone(&osd.interfaces));
    let view = osd.osdmap().clone();
    let (before, queued) = (counters(&sim), sim.queue_len());
    for (map_epoch, interfaces_epoch) in [(1, 1), (0, 0), (1, 0), (0, 1)] {
        let stale = OsdMsg::Gossip {
            interfaces: (interfaces_epoch, Rc::new(interfaces("stale"))),
            osdmap: (map_epoch, Rc::new(osdmap(false))),
        };
        sim.with_actor::<Osd, _>(OSD, |osd, ctx| osd.on_message(ctx, PEER, Box::new(stale)));
        let osd = sim.actor::<Osd>(OSD);
        assert!(Rc::ptr_eq(&osd.map_entries, &held_map));
        assert!(Rc::ptr_eq(&osd.interfaces, &held_ifaces));
        assert_eq!(*osd.osdmap(), view);
        assert_eq!((osd.map_epoch(), osd.interfaces_epoch()), (1, 1));
        assert_eq!(osd.registry().scripted_version("kv"), Some(1));
        assert_eq!(
            counters(&sim),
            before,
            "at ({map_epoch}, {interfaces_epoch})"
        );
        assert_eq!(sim.queue_len(), queued, "nothing sent, nothing armed");
    }
}
