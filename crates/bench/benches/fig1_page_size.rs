//! Bench: regenerate Fig. 1 (page-size potential and Linux THP under
//! 50% fragmentation) at bench scale.

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig1_page_sizes_on, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    g.bench_function("page_sizes_canneal_dedup", |b| {
        b.iter(|| {
            black_box(fig1_page_sizes_on(
                &Harness::sequential(),
                &profile,
                &[AppId::Canneal, AppId::Dedup],
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
