//! Data placement: placement groups and CRUSH-like pseudo-random mapping.
//!
//! Objects hash onto a pool's placement groups (PGs); each PG maps onto an
//! ordered *acting set* of OSDs via highest-random-weight (rendezvous)
//! hashing over the up set. HRW gives the property CRUSH gives Ceph: when
//! an OSD is added or removed, only the PGs that touched it move.

use crate::object::ObjectId;

/// A placement group within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PgId {
    /// Hash of the owning pool's name (pools are disjoint PG spaces).
    pub pool_hash: u64,
    /// PG index within the pool, `0..pg_num`.
    pub index: u32,
}

/// A stable 64-bit string hash (FNV-1a).
pub fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A 64-bit mix function (splitmix64 finalizer) for rendezvous draws.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Maps an object name onto its PG within a pool of `pg_num` groups.
///
/// A `pg_num` of zero is clamped to one: pool parameters come from the
/// operator-writable osdmap, and the monitor rejects invalid pool entries
/// at commit time (`mon.osdmap_rejected_updates`), so a zero here can only
/// arrive through a hand-crafted snapshot and must not panic a daemon.
pub fn pg_of(pool: &str, object_name: &str, pg_num: u32) -> PgId {
    PgId {
        pool_hash: stable_hash(pool),
        index: (stable_hash(object_name) % u64::from(pg_num.max(1))) as u32,
    }
}

/// [`pg_of`] for a caller that holds the object's id: the id carries
/// [`stable_hash`] of both names, so nothing is hashed here and the result
/// is bit for bit what `pg_of(&oid.pool, &oid.name, pg_num)` gives. The
/// `&str` form stays for callers that hold no id (harnesses placing a name
/// they never address) and as this one's oracle.
pub fn pg_of_id(oid: &ObjectId, pg_num: u32) -> PgId {
    PgId {
        pool_hash: oid.pool_hash(),
        index: (oid.name_hash() % u64::from(pg_num.max(1))) as u32,
    }
}

pub use mala_consensus::maps::WEIGHT_UNIT;

/// The per-(pg, osd) rendezvous hash, uniform over `u64`.
fn rendezvous_draw(pg: PgId, osd: u32) -> u64 {
    let draw = mix(pg.pool_hash ^ u64::from(pg.index).wrapping_mul(0x9e3779b97f4a7c15))
        ^ mix(u64::from(osd).wrapping_mul(0xd6e8feb86659fd93) ^ pg.pool_hash);
    mix(draw)
}

/// Computes the acting set for `pg` by weighted rendezvous hashing: up to
/// `replicas` OSD ids, primary first, fewer when fewer candidates are
/// eligible. Each candidate is `(osd, weight)` with
/// weight in hundredths (100 = 1.0×). An OSD's share of PGs is
/// proportional to its weight; weight-zero candidates never win (they are
/// "draining": still up for reads and backfill sourcing, but excluded from
/// new acting sets).
///
/// The score is `(weight / 100) / -ln(u)` with `u` the per-(pg, osd)
/// uniform draw — the standard weighted-rendezvous construction. For equal
/// weights the score is monotone in the draw, so this degrades exactly to
/// the unweighted ordering (ties broken by raw draw, then osd id).
pub fn acting_set_weighted(pg: PgId, osds: &[(u32, u32)], replicas: usize) -> Vec<u32> {
    let mut scored: Vec<(f64, u64, u32)> = osds
        .iter()
        .filter(|(_, weight)| *weight > 0)
        .map(|(osd, weight)| {
            let draw = rendezvous_draw(pg, *osd);
            // Map the draw into (0, 1) exclusive so ln() is finite.
            let u = (draw as f64 + 0.5) / 18_446_744_073_709_551_616.0;
            let score = (f64::from(*weight) / f64::from(WEIGHT_UNIT)) / -u.ln();
            (score, draw, *osd)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (b.1, b.2).cmp(&(a.1, a.2)))
    });
    scored
        .into_iter()
        .take(replicas)
        .map(|(_, _, osd)| osd)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osds(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    /// The acting set over `up`, every OSD at unit weight.
    fn acting_set(pg: PgId, up: &[u32], replicas: usize) -> Vec<u32> {
        let weighted: Vec<(u32, u32)> = up.iter().map(|o| (*o, WEIGHT_UNIT)).collect();
        acting_set_weighted(pg, &weighted, replicas)
    }

    #[test]
    fn pg_mapping_is_stable_and_in_range() {
        for i in 0..100 {
            let pg = pg_of("meta", &format!("obj{i}"), 64);
            assert!(pg.index < 64);
            assert_eq!(pg, pg_of("meta", &format!("obj{i}"), 64));
        }
    }

    #[test]
    fn different_pools_are_disjoint_pg_spaces() {
        let a = pg_of("pool-a", "x", 64);
        let b = pg_of("pool-b", "x", 64);
        assert_ne!(a.pool_hash, b.pool_hash);
    }

    #[test]
    fn acting_set_size_and_uniqueness() {
        let up = osds(10);
        for idx in 0..64 {
            let pg = PgId {
                pool_hash: 1,
                index: idx,
            };
            let set = acting_set(pg, &up, 3);
            assert_eq!(set.len(), 3);
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "acting set has duplicates: {set:?}");
        }
    }

    #[test]
    fn small_up_set_degrades_gracefully() {
        let pg = PgId {
            pool_hash: 9,
            index: 0,
        };
        assert_eq!(acting_set(pg, &[5], 3), vec![5]);
        assert!(acting_set(pg, &[], 3).is_empty());
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let up = osds(10);
        let mut primary_counts = [0usize; 10];
        for idx in 0..1024 {
            let pg = PgId {
                pool_hash: 42,
                index: idx,
            };
            primary_counts[acting_set(pg, &up, 3)[0] as usize] += 1;
        }
        // Expect ~102 per OSD; allow a wide band.
        for (osd, count) in primary_counts.iter().enumerate() {
            assert!(
                (40..=200).contains(count),
                "osd {osd} owns {count} of 1024 PGs"
            );
        }
    }

    #[test]
    fn removing_an_osd_only_moves_its_pgs() {
        let up_before = osds(10);
        let up_after: Vec<u32> = up_before.iter().copied().filter(|o| *o != 3).collect();
        for idx in 0..512 {
            let pg = PgId {
                pool_hash: 7,
                index: idx,
            };
            let before = acting_set(pg, &up_before, 3);
            let after = acting_set(pg, &up_after, 3);
            if !before.contains(&3) {
                assert_eq!(before, after, "pg {idx} moved without touching osd 3");
            } else {
                // Survivors keep their relative order (minimal disruption).
                let survivors: Vec<u32> = before.iter().copied().filter(|o| *o != 3).collect();
                let kept: Vec<u32> = after
                    .iter()
                    .copied()
                    .filter(|o| survivors.contains(o))
                    .collect();
                assert_eq!(survivors, kept);
            }
        }
    }

    #[test]
    fn zero_pg_num_clamps_instead_of_panicking() {
        let pg = pg_of("broken", "obj", 0);
        assert_eq!(pg.index, 0);
    }

    /// Under equal weights the score is monotone in the draw, so the
    /// weighted set is the plain rendezvous ordering: highest draw first,
    /// ties to the higher osd id.
    #[test]
    fn weighted_with_uniform_weights_matches_unweighted() {
        let up = osds(10);
        let weighted: Vec<(u32, u32)> = up.iter().map(|o| (*o, WEIGHT_UNIT)).collect();
        for idx in 0..256 {
            let pg = PgId {
                pool_hash: 77,
                index: idx,
            };
            let mut by_draw = up.clone();
            by_draw.sort_by_key(|o| std::cmp::Reverse((rendezvous_draw(pg, *o), *o)));
            by_draw.truncate(3);
            assert_eq!(
                by_draw,
                acting_set_weighted(pg, &weighted, 3),
                "pg {idx} diverges under uniform weights"
            );
        }
    }

    #[test]
    fn zero_weight_osds_are_excluded() {
        let weighted: Vec<(u32, u32)> = (0..6).map(|o| (o, if o == 2 { 0 } else { 100 })).collect();
        for idx in 0..256 {
            let pg = PgId {
                pool_hash: 5,
                index: idx,
            };
            let set = acting_set_weighted(pg, &weighted, 3);
            assert!(!set.contains(&2), "drained osd 2 won pg {idx}: {set:?}");
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn heavier_osds_attract_proportionally_more_pgs() {
        // osd 0 at 2.0x, the rest at 1.0x: expect roughly double its fair
        // share of primaries.
        let weighted: Vec<(u32, u32)> = (0..8)
            .map(|o| (o, if o == 0 { 200 } else { 100 }))
            .collect();
        let mut wins = 0usize;
        let total = 4096;
        for idx in 0..total {
            let pg = PgId {
                pool_hash: 99,
                index: idx,
            };
            if acting_set_weighted(pg, &weighted, 1)[0] == 0 {
                wins += 1;
            }
        }
        // Fair share at 2/9 ≈ 22.2% of 4096 ≈ 910. Allow a wide band that
        // still clearly excludes the unweighted 1/8 = 512 expectation.
        assert!(
            (700..=1200).contains(&wins),
            "osd 0 won {wins} of {total} primaries"
        );
    }

    #[test]
    fn weight_change_only_moves_pgs_touching_the_changed_osd() {
        // Draining osd 4 (weight → 0) must only remap PGs whose acting set
        // contained osd 4; every other PG's acting set is untouched.
        let before: Vec<(u32, u32)> = (0..10).map(|o| (o, 100)).collect();
        let after: Vec<(u32, u32)> = (0..10).map(|o| (o, if o == 4 { 0 } else { 100 })).collect();
        for idx in 0..512 {
            let pg = PgId {
                pool_hash: 13,
                index: idx,
            };
            let b = acting_set_weighted(pg, &before, 3);
            let a = acting_set_weighted(pg, &after, 3);
            if !b.contains(&4) {
                assert_eq!(b, a, "pg {idx} moved without touching osd 4");
            } else {
                let survivors: Vec<u32> = b.iter().copied().filter(|o| *o != 4).collect();
                let kept: Vec<u32> = a
                    .iter()
                    .copied()
                    .filter(|o| survivors.contains(o))
                    .collect();
                assert_eq!(survivors, kept, "pg {idx} reordered survivors");
            }
        }
    }

    #[test]
    fn adding_an_osd_moves_bounded_fraction() {
        let up_before = osds(10);
        let mut up_after = up_before.clone();
        up_after.push(10);
        let mut moved = 0;
        let total = 1024;
        for idx in 0..total {
            let pg = PgId {
                pool_hash: 3,
                index: idx,
            };
            if acting_set(pg, &up_before, 3) != acting_set(pg, &up_after, 3) {
                moved += 1;
            }
        }
        // Expected fraction ≈ 3/11 ≈ 27%; assert it stays well below a
        // rehash-everything baseline.
        let frac = moved as f64 / total as f64;
        assert!(frac < 0.45, "moved fraction {frac} too high");
        assert!(frac > 0.05, "suspiciously little movement: {frac}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Placement through an id is placement through its names, for
            /// any names and any `pg_num` — zero included, which both clamp.
            #[test]
            fn pg_of_an_id_is_pg_of_its_names(
                pool in "[a-z0-9._\u{e9}]{0,12}",
                name in "[a-z0-9._/\u{2603}]{0,24}",
                pg_num in prop_oneof![Just(0u32), Just(1), 1u32..4096, any::<u32>()],
            ) {
                let oid = ObjectId::new(pool.as_str(), name.as_str());
                prop_assert_eq!(pg_of_id(&oid, pg_num), pg_of(&pool, &name, pg_num));
            }

            /// Removing one OSD from an arbitrary up set only remaps PGs
            /// whose acting set contained it; survivors keep their order.
            #[test]
            fn removing_any_osd_only_moves_its_pgs(
                n in 2u32..16,
                victim_idx in 0u32..16,
                pool_hash in any::<u64>(),
                replicas in 1usize..4,
            ) {
                let up: Vec<u32> = (0..n).collect();
                let victim = victim_idx % n;
                let after: Vec<u32> = up.iter().copied().filter(|o| *o != victim).collect();
                for idx in 0..128 {
                    let pg = PgId { pool_hash, index: idx };
                    let b = acting_set(pg, &up, replicas);
                    let a = acting_set(pg, &after, replicas);
                    if !b.contains(&victim) {
                        prop_assert_eq!(&b, &a, "pg {} moved without touching osd {}", idx, victim);
                    } else {
                        let survivors: Vec<u32> =
                            b.iter().copied().filter(|o| *o != victim).collect();
                        let kept: Vec<u32> =
                            a.iter().copied().filter(|o| survivors.contains(o)).collect();
                        prop_assert_eq!(survivors, kept, "pg {} reordered survivors", idx);
                    }
                }
            }

            /// Adding one OSD to an arbitrary up set only changes PGs that
            /// now include the newcomer; everything else is byte-identical.
            #[test]
            fn adding_any_osd_only_moves_pgs_it_wins(
                n in 1u32..16,
                pool_hash in any::<u64>(),
                replicas in 1usize..4,
            ) {
                let up: Vec<u32> = (0..n).collect();
                let mut grown = up.clone();
                grown.push(n);
                for idx in 0..128 {
                    let pg = PgId { pool_hash, index: idx };
                    let b = acting_set(pg, &up, replicas);
                    let a = acting_set(pg, &grown, replicas);
                    if b == a {
                        continue;
                    }
                    prop_assert!(
                        a.contains(&n),
                        "pg {} changed without the new osd winning: {:?} -> {:?}",
                        idx, b, a
                    );
                    let survivors: Vec<u32> =
                        b.iter().copied().filter(|o| a.contains(o)).collect();
                    let kept: Vec<u32> =
                        a.iter().copied().filter(|o| survivors.contains(o)).collect();
                    prop_assert_eq!(survivors, kept, "pg {} reordered survivors", idx);
                }
            }

            /// Weighted draws never select weight-zero candidates and never
            /// duplicate an OSD, for arbitrary weight assignments.
            #[test]
            fn weighted_sets_are_valid(
                weights in proptest::collection::vec(0u32..300, 1..12),
                pool_hash in any::<u64>(),
            ) {
                let osds: Vec<(u32, u32)> = weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i as u32, *w))
                    .collect();
                let eligible = osds.iter().filter(|(_, w)| *w > 0).count();
                for idx in 0..64 {
                    let pg = PgId { pool_hash, index: idx };
                    let set = acting_set_weighted(pg, &osds, 3);
                    prop_assert_eq!(set.len(), eligible.min(3));
                    let mut dedup = set.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    prop_assert_eq!(dedup.len(), set.len(), "duplicates in {:?}", set);
                    for osd in &set {
                        prop_assert!(osds[*osd as usize].1 > 0, "weight-zero osd {} won", osd);
                    }
                }
            }
        }
    }
}
