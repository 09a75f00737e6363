//! Component microbenchmarks and the ablations `DESIGN.md` calls out:
//!
//! * scripted (Cephalo) vs. native object-class dispatch — the cost of
//!   the paper's dynamic interfaces relative to compiled ones;
//! * Cephalo compile + execute;
//! * Paxos commit round (pure state machine);
//! * PG placement (rendezvous hashing);
//! * simulator event throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use mala_dsl::{Engine, Script, Value, Vm};
use mala_rados::{ClassRegistry, Object};

fn bench_class_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_dispatch");
    // Native: the built-in refcount class.
    let native = ClassRegistry::with_builtins();
    let mut slot = Some(Object::new());
    group.bench_function("native_refcount_get", |b| {
        b.iter(|| {
            std::hint::black_box(native.call("refcount", "get", &mut slot, b"").unwrap());
        })
    });
    // Scripted: an equivalent counter in Cephalo.
    let mut scripted = ClassRegistry::new();
    scripted
        .install_scripted(
            "counter",
            r#"
            function get(input)
                local v = tonumber(xattr_get("refcount"))
                if v == nil then v = 0 end
                v = v + 1
                xattr_set("refcount", fmt(v))
                return fmt(v)
            end
            "#,
            1,
        )
        .unwrap();
    let mut slot2 = Some(Object::new());
    group.bench_function("scripted_counter_get", |b| {
        b.iter(|| {
            std::hint::black_box(scripted.call("counter", "get", &mut slot2, b"").unwrap());
        })
    });
    group.finish();
}

fn bench_dsl(c: &mut Criterion) {
    let mut group = c.benchmark_group("cephalo");
    let source = mala_mantle::SEQUENCER_AWARE_POLICY;
    group.bench_function("compile_policy", |b| {
        b.iter(|| std::hint::black_box(Script::compile(source).unwrap()))
    });
    let fib = Script::compile(
        "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end",
    )
    .unwrap();
    let mut vm = Vm::new();
    vm.load(&fib).unwrap();
    group.bench_function("fib_15", |b| {
        b.iter(|| std::hint::black_box(vm.call("fib", &[Value::from(15.0)], &mut ()).unwrap()))
    });
    group.finish();
}

fn bench_paxos(c: &mut Criterion) {
    use mala_consensus::paxos::PaxosNode;
    c.bench_function("paxos_commit_round_3replicas", |b| {
        b.iter(|| {
            let mut nodes: Vec<PaxosNode<u64>> = (0..3).map(|i| PaxosNode::new(i, 3)).collect();
            let mut wire: Vec<(u32, _)> =
                nodes[0].campaign().into_iter().map(|o| (0u32, o)).collect();
            for cmd in 0..16u64 {
                wire.extend(nodes[0].submit(cmd).into_iter().map(|o| (0u32, o)));
                while let Some((from, out)) = wire.pop() {
                    let to = out.to;
                    let replies = nodes[to as usize].on_message(from, out.msg);
                    wire.extend(replies.into_iter().map(|r| (to, r)));
                }
            }
            std::hint::black_box(nodes[2].first_unchosen())
        })
    });
}

fn bench_placement(c: &mut Criterion) {
    use mala_rados::placement::{acting_set_weighted, pg_of, WEIGHT_UNIT};
    let up: Vec<(u32, u32)> = (0..120).map(|o| (o, WEIGHT_UNIT)).collect();
    c.bench_function("placement_1000_objects_120osds", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..1000 {
                let pg = pg_of("data", &format!("obj-{i}"), 256);
                acc = acc.wrapping_add(acting_set_weighted(pg, &up, 3)[0]);
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_sim(c: &mut Criterion) {
    use mala_sim::{Actor, Context, NodeId, Sim, SimDuration};
    struct PingPong {
        peer: NodeId,
        seed: bool,
    }
    impl Actor for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.seed {
                ctx.send(self.peer, 0u64);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Box<dyn std::any::Any>) {
            let n = *msg.downcast::<u64>().unwrap();
            ctx.send(from, n + 1);
        }
    }
    c.bench_function("sim_100k_message_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            sim.add_node(
                NodeId(0),
                PingPong {
                    peer: NodeId(1),
                    seed: true,
                },
            );
            sim.add_node(
                NodeId(1),
                PingPong {
                    peer: NodeId(0),
                    seed: false,
                },
            );
            // ~100k deliveries at ~350us simulated RTT per exchange.
            sim.run_for(SimDuration::from_secs(18));
            std::hint::black_box(sim.metrics().counter("sim.messages_sent"))
        })
    });
}

criterion_group!(
    micro,
    bench_class_dispatch,
    bench_dsl,
    bench_paxos,
    bench_placement,
    bench_sim
);
criterion_main!(micro);
