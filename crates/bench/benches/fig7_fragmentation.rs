//! Bench: regenerate Fig. 7 (policy comparison at 90% fragmentation).

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig7_fragmentation_on, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fragmentation90_omnetpp", |b| {
        b.iter(|| {
            black_box(fig7_fragmentation_on(
                &Harness::sequential(),
                &profile,
                &[AppId::Omnetpp],
                90,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
