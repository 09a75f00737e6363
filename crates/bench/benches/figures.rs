//! Criterion wrappers around every experiment in the table, at quick
//! scale so `cargo bench` finishes in minutes. The paper-scale
//! regenerations are `cargo run --release -p mala-bench -- <name>`.

use criterion::{criterion_group, criterion_main, Criterion};
use mala_bench::{Scale, EXPERIMENTS};

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("quick");
    group.sample_size(10);
    for entry in &EXPERIMENTS {
        group.bench_function(entry.name, |b| {
            b.iter(|| std::hint::black_box((entry.run)(Scale::Quick).text))
        });
    }
    group.finish();
}

criterion_group!(figures, bench_experiments);
criterion_main!(figures);
