//! Direct-call layer probes: host-clock costs of single public calls into
//! `sim`, `dsl` (through the RADOS class registry) and `core`, measured
//! outside any simulation. Each is the median of many repetitions; they
//! are the same for every workload.

use std::hint::black_box;
use std::time::Instant;

use mala_dsl::Script;
use mala_rados::{ClassRegistry, Object};
use mala_sim::{Metrics, NodeId, SimTime, Tracer};
use mala_zlog::{encode_read_batch, encode_write_batch, ZLOG_CLASS, ZLOG_CLASS_SOURCE};
use malacology::cluster::ClusterBuilder;

use crate::gen;
use crate::harness::Values;
use crate::stats;

/// Median host nanoseconds of `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    stats::quantile(&mut ns, 0.5).unwrap_or(0) as f64
}

/// `Metrics::incr` on a sink that already holds 200 names.
fn metrics_incr_ns() -> f64 {
    const CALLS: usize = 20_000;
    let names: Vec<String> = (0..200)
        .map(|i| format!("layer{}.counter{i}", i % 8))
        .collect();
    let mut sink = Metrics::new();
    for name in &names {
        sink.incr(name, 1);
    }
    let batch = median_ns(15, || {
        for i in 0..CALLS {
            sink.incr(&names[i % names.len()], 1);
        }
        black_box(&mut sink);
    });
    batch / CALLS as f64
}

/// One `Tracer::start` + `Tracer::end` pair, child of a root span.
fn tracer_span_ns() -> f64 {
    const SPANS: usize = 20_000;
    let batch = median_ns(15, || {
        let mut tracer = Tracer::new();
        let root = tracer.start(NodeId(0), "probe.root", None, SimTime::ZERO);
        for i in 0..SPANS as u64 {
            let at = SimTime::from_micros(i);
            let span = tracer.start(NodeId(1), "probe.child", Some(root), at);
            tracer.end(span, SimTime::from_micros(i + 30));
        }
        black_box(&tracer);
    });
    batch / SPANS as f64
}

/// The installed `zlog` class on one stripe object of 256 × 1 KiB entries:
/// `write_batch` of 8 more entries, and `read_batch` of 32 positions.
fn class_call_us() -> Result<(f64, f64), String> {
    let mut registry = ClassRegistry::new();
    registry
        .install_scripted(ZLOG_CLASS, ZLOG_CLASS_SOURCE, 1)
        .map_err(|e| format!("installing the zlog class: {e:?}"))?;
    let batch_input = |first: u64| {
        let payloads: Vec<Vec<u8>> = (0..8).map(|k| gen::payload(0, first + k, 1024)).collect();
        let entries: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(k, p)| (first + k as u64, p.as_slice()))
            .collect();
        encode_write_batch(0, &entries)
    };
    let mut object: Option<Object> = None;
    for batch in 0..32 {
        registry
            .call(
                ZLOG_CLASS,
                "write_batch",
                &mut object,
                &batch_input(batch * 8),
            )
            .map_err(|e| format!("probe write_batch: {e:?}"))?;
    }
    let write_input = batch_input(256);
    let mut failed = false;
    let write_ns = median_ns(31, || {
        // Each run gets its own copy: the write must land on a 256-entry
        // object every time. The copy is inside the timing, as it is on
        // the OSD, where every transaction starts by cloning the object.
        let mut slot = object.clone();
        failed |= registry
            .call(ZLOG_CLASS, "write_batch", &mut slot, &write_input)
            .is_err();
        black_box(&slot);
    });
    let positions: Vec<u64> = (0..32).map(|k| k * 8).collect();
    let read_input = encode_read_batch(0, &positions);
    let read_ns = median_ns(31, || {
        let mut slot = object.clone();
        let out = registry.call(ZLOG_CLASS, "read_batch", &mut slot, &read_input);
        failed |= out.is_err();
        black_box(&out);
    });
    if failed {
        return Err("probe class call returned an error".into());
    }
    Ok((write_ns / 1e3, read_ns / 1e3))
}

/// Runs every probe.
pub fn run() -> Result<Values, String> {
    let mut v = Values::new();
    v.insert("sim.metrics_incr_ns", metrics_incr_ns());
    v.insert("sim.tracer_span_ns", tracer_span_ns());
    let compile_ns = median_ns(31, || {
        black_box(Script::compile(black_box(ZLOG_CLASS_SOURCE)).is_ok());
    });
    v.insert("dsl.compile_us", compile_ns / 1e3);
    let (write_us, read_us) = class_call_us()?;
    v.insert("dsl.class_write_batch_us", write_us);
    v.insert("dsl.class_read_batch_us", read_us);
    // `malacology::cluster`'s own assembly of the append workloads' shape,
    // settle included.
    let build_ns = median_ns(5, || {
        let cluster = ClusterBuilder::new()
            .monitors(1)
            .osds(6)
            .mds_ranks(2)
            .pool("zlogpool", 64, 2)
            .pool("meta", 8, 2)
            .build(2017);
        black_box(cluster.ready());
    });
    v.insert("core.build_host_ms", build_ns / 1e6);
    Ok(v)
}
