//! Bench: regenerate Fig. 6 (PCC size sensitivity sweep).

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig6_pcc_size_on, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("pcc_size_canneal", |b| {
        b.iter(|| {
            black_box(fig6_pcc_size_on(
                &Harness::sequential(),
                &profile,
                &[AppId::Canneal],
                &[4, 32, 128],
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
