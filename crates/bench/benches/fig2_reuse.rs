//! Bench: regenerate Fig. 2 (reuse-distance characterisation of BFS).

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig2_reuse_on, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("reuse_bfs", |b| {
        b.iter(|| {
            black_box(fig2_reuse_on(
                &Harness::sequential(),
                &profile,
                AppId::Bfs,
                200_000,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
