//! Cross-crate property tests on the system's core invariants:
//!
//! * **CORFU write-once / uniqueness** — any interleaving of appends from
//!   multiple clients yields unique, dense log positions, and readback
//!   matches what each append wrote.
//! * **Capability exclusivity** — under random contention schedules the
//!   MDS never considers two clients holders at once, and the flushed
//!   sequencer state never regresses.
//! * **Placement stability** — over random up-set changes the acting set
//!   only changes for PGs that touched the changed OSD.

use proptest::prelude::*;

mod zlog_props {
    use super::*;
    use mala_sim::SimDuration;
    use mala_zlog::log::{run_op, ZlogOut};
    use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
    use malacology::cluster::ClusterBuilder;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn appends_are_unique_dense_and_durable(
            schedule in prop::collection::vec(0usize..3, 3..12),
            seed in 0u64..1000,
        ) {
            let mut cluster = ClusterBuilder::new()
                .monitors(1)
                .osds(3)
                .mds_ranks(1)
                .pool("p", 16, 2)
                .build(seed);
            cluster.commit_updates(vec![zlog_interface_update()]);
            let mut clients = Vec::new();
            for _ in 0..3 {
                let node = cluster.alloc_node();
                let config = ZlogConfig {
                    name: "prop".into(),
                    pool: "p".into(),
                    stripe_width: 3,
                    mds_nodes: cluster.mds_nodes(),
                    home_rank: 0,
                    monitor: cluster.mon(),
                };
                cluster.sim.add_node(node, ZlogClient::new(config));
                clients.push(node);
            }
            cluster.sim.run_for(SimDuration::from_secs(1));
            run_op(&mut cluster.sim, clients[0], SimDuration::from_secs(10), |c, ctx| c.setup(ctx));

            let mut positions = Vec::new();
            for (i, who) in schedule.iter().enumerate() {
                let payload = format!("w{who}-{i}");
                let res = run_op(
                    &mut cluster.sim,
                    clients[*who],
                    SimDuration::from_secs(10),
                    {
                        let p = payload.clone();
                        move |c, ctx| c.append(ctx, p.into_bytes())
                    },
                );
                let AppendResult::Ok(ZlogOut::Pos(pos)) = res else {
                    return Err(TestCaseError::fail(format!("append failed: {res:?}")));
                };
                positions.push((pos, payload));
            }
            // Unique and dense.
            let mut sorted: Vec<u64> = positions.iter().map(|(p, _)| *p).collect();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..schedule.len() as u64).collect::<Vec<_>>());
            // Readback matches (from any client).
            for (pos, payload) in &positions {
                let pos = *pos;
                let res = run_op(
                    &mut cluster.sim,
                    clients[0],
                    SimDuration::from_secs(10),
                    move |c, ctx| c.read(ctx, pos),
                );
                let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res else {
                    return Err(TestCaseError::fail(format!("read {pos} failed: {res:?}")));
                };
                prop_assert_eq!(data, payload.clone().into_bytes());
            }
        }
    }
}

mod cap_props {
    use super::*;
    use mala_mds::caps::{CapAction, CapPolicy, CapState};
    use mala_sim::{NodeId, SimDuration, SimTime};

    #[derive(Debug, Clone)]
    enum Ev {
        Request(u32),
        ReleaseByHolder,
        StaleRelease(u32),
        Tick(u64),
        Evict(u32),
    }

    fn arb_ev() -> impl Strategy<Value = Ev> {
        prop_oneof![
            4 => (0u32..4).prop_map(Ev::Request),
            3 => Just(Ev::ReleaseByHolder),
            1 => (0u32..4).prop_map(Ev::StaleRelease),
            2 => (1u64..400).prop_map(Ev::Tick),
            1 => (0u32..4).prop_map(Ev::Evict),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn at_most_one_holder_and_grants_follow_releases(
            events in prop::collection::vec(arb_ev(), 0..80),
            policy_kind in 0u8..3,
        ) {
            let policy = match policy_kind {
                0 => CapPolicy::best_effort(),
                1 => CapPolicy::delay(SimDuration::from_millis(50)),
                _ => CapPolicy::quota(100, SimDuration::from_millis(50)),
            };
            let mut cap = CapState::new(policy);
            let mut now = SimTime::ZERO;
            // Track which client the *server* believes holds the cap; every
            // grant must follow the previous holder's release/evict.
            for ev in events {
                now += SimDuration::from_millis(1);
                let before = cap.holder();
                let actions = match ev {
                    Ev::Request(c) => cap.request(NodeId(c), now),
                    Ev::ReleaseByHolder => match before {
                        Some(h) => cap.release(h, now),
                        None => Vec::new(),
                    },
                    Ev::StaleRelease(c) => {
                        let client = NodeId(c);
                        if before == Some(client) {
                            Vec::new() // not stale; skip
                        } else {
                            let acts = cap.release(client, now);
                            prop_assert!(acts.is_empty(), "stale release acted");
                            prop_assert_eq!(cap.holder(), before);
                            acts
                        }
                    }
                    Ev::Tick(ms) => {
                        now += SimDuration::from_millis(ms);
                        cap.on_tick(now)
                    }
                    Ev::Evict(c) => cap.evict(NodeId(c), now),
                };
                // Invariants on every step:
                for a in &actions {
                    match a {
                        CapAction::Grant { to } => {
                            prop_assert_eq!(cap.holder(), Some(*to));
                        }
                        CapAction::Recall { from } => {
                            prop_assert_eq!(Some(*from), before, "recall to non-holder");
                        }
                    }
                }
                let grants = actions
                    .iter()
                    .filter(|a| matches!(a, CapAction::Grant { .. }))
                    .count();
                prop_assert!(grants <= 1, "double grant in one step");
            }
        }
    }
}

mod placement_props {
    use super::*;
    use mala_rados::placement::{acting_set_weighted, PgId, WEIGHT_UNIT};

    /// The acting set over `up`, every OSD at unit weight.
    fn acting_set(pg: PgId, up: &[u32], replicas: usize) -> Vec<u32> {
        let weighted: Vec<(u32, u32)> = up.iter().map(|o| (*o, WEIGHT_UNIT)).collect();
        acting_set_weighted(pg, &weighted, replicas)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn removing_osds_only_moves_their_pgs(
            n_osds in 4u32..24,
            remove in prop::collection::btree_set(0u32..24, 1..3),
            pool_hash in any::<u64>(),
        ) {
            let before: Vec<u32> = (0..n_osds).collect();
            let after: Vec<u32> = before
                .iter()
                .copied()
                .filter(|o| !remove.contains(o))
                .collect();
            prop_assume!(after.len() >= 3);
            for index in 0..128 {
                let pg = PgId { pool_hash, index };
                let set_before = acting_set(pg, &before, 3);
                let set_after = acting_set(pg, &after, 3);
                if set_before.iter().all(|o| !remove.contains(o)) {
                    prop_assert_eq!(&set_before, &set_after, "pg {} moved gratuitously", index);
                } else {
                    // Survivors keep their relative order.
                    let survivors: Vec<u32> = set_before
                        .iter()
                        .copied()
                        .filter(|o| !remove.contains(o))
                        .collect();
                    let kept: Vec<u32> = set_after
                        .iter()
                        .copied()
                        .filter(|o| survivors.contains(o))
                        .collect();
                    prop_assert_eq!(survivors, kept);
                }
                // Never places on a removed OSD.
                prop_assert!(set_after.iter().all(|o| !remove.contains(o)));
            }
        }
    }
}
