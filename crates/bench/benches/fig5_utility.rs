//! Bench: regenerate Fig. 5 (PCC vs HawkEye utility curves) at bench
//! scale for one TLB-sensitive app.

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig5_utility_on, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("utility_omnetpp", |b| {
        b.iter(|| {
            black_box(fig5_utility_on(
                &Harness::sequential(),
                &profile,
                AppId::Omnetpp,
                &[0, 4, 100],
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
