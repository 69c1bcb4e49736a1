//! Bench: regenerate Fig. 8 (multithread selection policies).

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig8_multithread_on, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("multithread2_canneal", |b| {
        b.iter(|| {
            black_box(fig8_multithread_on(
                &Harness::sequential(),
                &profile,
                &[AppId::Canneal],
                &[2],
                &[0, 8],
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
