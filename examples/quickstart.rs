//! Quickstart: bring up a simulated Malacology cluster, touch each of the
//! programmable-storage interfaces once, and append to a ZLog.
//!
//! Run with: `cargo run --example quickstart`

use std::collections::HashMap;

use mala_rados::{ObjectId, Op, OpResult};
use mala_sim::SimDuration;
use mala_zlog::log::{run_op, ZlogOut};
use mala_zlog::{zlog_interface_update, AppendResult, ReadOutcome, ZlogClient, ZlogConfig};
use malacology::cluster::ClusterBuilder;
use malacology::interfaces::{data_io, durability};

fn main() {
    // 1. A cluster: 3 monitors (Paxos quorum), 6 OSDs, 1 MDS rank.
    let mut cluster = ClusterBuilder::new()
        .monitors(3)
        .osds(6)
        .mds_ranks(1)
        .pool("data", 32, 3)
        .build(42);
    println!("cluster up: ready = {}", cluster.ready());

    // 2. Durability interface: store and fetch a blob through RADOS.
    let oid = ObjectId::new("data", "hello");
    cluster
        .rados(
            oid.clone(),
            durability::put_blob(b"hello malacology".to_vec()),
        )
        .expect("write failed");
    let out = cluster
        .rados(oid, durability::get_blob())
        .expect("read failed");
    if let OpResult::Data(data) = &out[0] {
        println!(
            "durability: stored and read back {:?}",
            String::from_utf8_lossy(data)
        );
    }

    // 3. Data I/O interface: hot-install a scripted object class and call
    //    it — no daemon restarts anywhere.
    cluster.commit_updates(vec![data_io::install_interface(
        "greeter",
        r#"
        function greet(input)
            return "hello, " .. input .. "!"
        end
        "#,
    )]);
    cluster.sim.run_for(SimDuration::from_secs(1));
    let out = cluster
        .rados(
            ObjectId::new("data", "greeting"),
            data_io::call("greeter", "greet", b"world"),
        )
        .expect("class call failed");
    if let OpResult::CallOut(reply) = &out[0] {
        println!(
            "data i/o: scripted class replied {:?}",
            String::from_utf8_lossy(reply)
        );
    }

    // 4. ZLog: the CORFU shared log built from the File Type, Shared
    //    Resource, Service Metadata, and Data I/O interfaces together.
    cluster.commit_updates(vec![zlog_interface_update()]);
    let zlog_node = cluster.alloc_node();
    let mds_nodes: HashMap<u32, _> = cluster.mds_nodes();
    let monitor = cluster.mon();
    cluster.sim.add_node(
        zlog_node,
        ZlogClient::new(ZlogConfig {
            name: "demo".to_string(),
            pool: "data".to_string(),
            stripe_width: 4,
            mds_nodes,
            home_rank: 0,
            monitor,
        }),
    );
    cluster.sim.run_for(SimDuration::from_secs(1));
    run_op(
        &mut cluster.sim,
        zlog_node,
        SimDuration::from_secs(10),
        |c, ctx| c.setup(ctx),
    );
    for i in 0..5 {
        let msg = format!("entry-{i}");
        let res = run_op(&mut cluster.sim, zlog_node, SimDuration::from_secs(10), {
            let msg = msg.clone();
            move |c, ctx| c.append(ctx, msg.into_bytes())
        });
        if let AppendResult::Ok(ZlogOut::Pos(pos)) = res {
            println!("zlog: appended {msg:?} at position {pos}");
        }
    }
    let res = run_op(
        &mut cluster.sim,
        zlog_node,
        SimDuration::from_secs(10),
        |c, ctx| c.read(ctx, 2),
    );
    if let AppendResult::Ok(ZlogOut::Read(ReadOutcome::Data(data))) = res {
        println!(
            "zlog: position 2 holds {:?}",
            String::from_utf8_lossy(&data)
        );
    }

    // 5. One native class for good measure (Ceph-style static interface).
    let out = cluster
        .rados(
            ObjectId::new("data", "counter"),
            vec![
                Op::Create { exclusive: false },
                Op::Call {
                    class: "refcount".into(),
                    method: "get".into(),
                    input: Default::default(),
                },
            ],
        )
        .expect("refcount failed");
    if let OpResult::CallOut(n) = &out[1] {
        println!("native class: refcount now {}", String::from_utf8_lossy(n));
    }
    println!(
        "\nquickstart complete at simulated time {}",
        cluster.sim.now()
    );
}
