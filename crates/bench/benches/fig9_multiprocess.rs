//! Bench: regenerate Fig. 9 (multiprocess case studies).

use criterion::{criterion_group, criterion_main, Criterion};
use hpage_bench::bench_profile;
use hpage_sim::{fig9_multiprocess_on, Fig9Config, Harness};
use hpage_trace::AppId;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = bench_profile();
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.bench_function("multiprocess_omnetpp_dedup", |b| {
        b.iter(|| {
            black_box(fig9_multiprocess_on(
                &Harness::sequential(),
                &profile,
                Fig9Config {
                    app_a: AppId::Omnetpp,
                    app_b: AppId::Dedup,
                },
                &[0, 100],
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
