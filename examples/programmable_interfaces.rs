//! The Data I/O interface as the paper's §2 motivates it: co-designed
//! object interfaces, installed and *upgraded live* against a running
//! cluster — plus the interface census behind Figure 2 / Table 1.
//!
//! The scenario: an application team ships a custom secondary-index class
//! (atomically maintaining a key-value index next to the byte stream —
//! the paper's example of transactional interface composition), then
//! upgrades it in place to add a method, with no daemon restarts and with
//! stale versions rejected everywhere.
//!
//! Run with: `cargo run --example programmable_interfaces`

use mala_rados::class_registry::{census_by_category, growth_series};
use mala_rados::{ObjectId, Op, OpResult, Osd};
use mala_sim::SimDuration;
use malacology::cluster::ClusterBuilder;
use malacology::interfaces::data_io;

const INDEXED_STORE_V1: &str = r#"
-- v1: put() atomically appends a record AND maintains an index entry,
-- exactly the paper's example: "an interface that atomically updates a
-- matrix stored in the bytestream and an index of the matrix stored in
-- the key-value database".
function put(input)
    local parts = split(input, "=")
    if parts[2] == nil then error("EINVAL: want key=value") end
    local off = data_size()
    data_append(parts[2])
    omap_set("idx." .. parts[1], fmt(off) .. ":" .. fmt(#parts[2]))
    return "ok"
end

function get(input)
    local entry = omap_get("idx." .. input)
    if entry == nil then error("ENOENT: no such key") end
    local parts = split(entry, ":")
    return data_read(tonumber(parts[1]), tonumber(parts[2]))
end
"#;

const INDEXED_STORE_V2: &str = r#"
-- v2 adds len() without touching the running cluster.
function put(input)
    local parts = split(input, "=")
    if parts[2] == nil then error("EINVAL: want key=value") end
    local off = data_size()
    data_append(parts[2])
    omap_set("idx." .. parts[1], fmt(off) .. ":" .. fmt(#parts[2]))
    return "ok"
end

function get(input)
    local entry = omap_get("idx." .. input)
    if entry == nil then error("ENOENT: no such key") end
    local parts = split(entry, ":")
    return data_read(tonumber(parts[1]), tonumber(parts[2]))
end

function len(input)
    return fmt(omap_len())
end
"#;

fn main() {
    let mut cluster = ClusterBuilder::new()
        .monitors(3)
        .osds(8)
        .pool("app", 32, 3)
        .build(17);
    let oid = ObjectId::new("app", "records");

    // Install v1 cluster-wide through the Service Metadata interface.
    println!("installing indexed-store v1...");
    cluster.commit_updates(vec![data_io::install_interface(
        "indexed_store",
        INDEXED_STORE_V1,
    )]);
    cluster.sim.run_for(SimDuration::from_secs(1));

    // Use it: transactional put / indexed get.
    for kv in ["alpha=first-record", "beta=second", "gamma=third-and-long"] {
        cluster
            .rados(
                oid.clone(),
                data_io::call("indexed_store", "put", kv.as_bytes()),
            )
            .expect("put failed");
    }
    let out = cluster
        .rados(oid.clone(), data_io::call("indexed_store", "get", b"beta"))
        .expect("get failed");
    if let OpResult::CallOut(v) = &out[0] {
        println!("get(beta) = {:?}", String::from_utf8_lossy(v));
    }

    // A transaction mixing native ops and a class call is atomic: the
    // failing comparison rolls back the class call's mutations too.
    let err = cluster.rados(
        oid.clone(),
        vec![
            Op::Call {
                class: "indexed_store".into(),
                method: "put".into(),
                input: b"doomed=will-roll-back"[..].into(),
            },
            Op::OmapCmpXchg {
                key: "fence".into(),
                expect: Some(b"never-set".to_vec()),
                value: b"x".to_vec(),
            },
        ],
    );
    assert!(err.is_err());
    let gone = cluster.rados(
        oid.clone(),
        data_io::call("indexed_store", "get", b"doomed"),
    );
    assert!(gone.is_err(), "rolled-back put must not be visible");
    println!("atomicity: failing transaction rolled the indexed put back");

    // v1 has no len(): the method simply does not resolve.
    let before = cluster.rados(
        oid.clone(),
        data_io::call("indexed_store", "len", Vec::new()),
    );
    println!(
        "len() under v1 -> {:?}",
        before.err().map(|e| e.to_string())
    );

    // Live upgrade to v2.
    println!("\nupgrading to v2 (adds len) with the cluster running...");
    cluster.commit_updates(vec![data_io::install_interface(
        "indexed_store",
        INDEXED_STORE_V2,
    )]);
    cluster.sim.run_for(SimDuration::from_secs(1));
    let out = cluster
        .rados(oid, data_io::call("indexed_store", "len", Vec::new()))
        .expect("len failed after upgrade");
    if let OpResult::CallOut(v) = &out[0] {
        println!(
            "len() under v2 = {} indexed keys",
            String::from_utf8_lossy(v)
        );
    }
    // Every OSD converged on the same version.
    let versions: Vec<u64> = (0..8)
        .map(|i| {
            cluster
                .sim
                .actor::<Osd>(cluster.osd_node(i))
                .registry()
                .scripted_version("indexed_store")
                .unwrap_or(0)
        })
        .collect();
    println!("per-OSD installed versions: {versions:?}");
    assert!(versions.windows(2).all(|w| w[0] == w[1]));

    // The census that motivates all of this (Fig. 2 / Table 1).
    println!("\nwhy programmability is a feature, not a hack (paper §2):");
    for (year, classes, methods) in growth_series() {
        println!("  {year}: {classes:>2} co-designed classes, {methods:>2} methods");
    }
    for (cat, methods) in census_by_category() {
        println!(
            "  {:<22} {:>3} methods — e.g. {}",
            cat.name(),
            methods,
            cat.example()
        );
    }
}
