//! Hot-path component costs: what every simulated access pays (TLB
//! lookup, hierarchy probe, page-table walk, PCC update) plus the trace
//! feed (HPT2 mmap decode) and the huge-page-backed buffer stream.
//!
//! End-to-end simulator throughput is not measured here: the repository
//! benchmark (`BENCHMARK.json`, `perfbench/`) and `hpsim --throughput`
//! cover it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hpage_pcc::Pcc;
use hpage_tlb::{PageTable, SetAssocTlb, TlbHierarchy, Translation};
use hpage_trace::{instantiate, AppId, Dataset, SynthScale, Workload, WorkloadScale};
use hpage_types::{PageSize, PccConfig, Pfn, TlbConfig, TlbLevelConfig, VirtAddr, Vpn};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.throughput(Throughput::Elements(1));

    // Component: single-level TLB lookup, hit path.
    g.bench_function("tlb_lookup", |b| {
        let mut tlb = SetAssocTlb::new(TlbLevelConfig::new(64, 4));
        for i in 0..64u64 {
            tlb.insert(Translation {
                vpn: Vpn::new(i, PageSize::Base4K),
                pfn: Pfn::new(i, PageSize::Base4K),
            });
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(tlb.lookup(Vpn::new(i, PageSize::Base4K)))
        });
    });

    // Component: L1+L2 TLB hierarchy lookup, L1 hit path.
    g.bench_function("tlb_hierarchy_hit", |b| {
        let mut tlb = TlbHierarchy::new(TlbConfig::paper());
        for i in 0..32u64 {
            tlb.fill(Translation {
                vpn: Vpn::new(i, PageSize::Base4K),
                pfn: Pfn::new(i, PageSize::Base4K),
            });
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 32;
            black_box(tlb.lookup(VirtAddr::new(i << 12)))
        });
    });

    // Component: warm 4-level page-table walk (4 KiB leaves).
    g.bench_function("page_table_walk", |b| {
        let mut pt = PageTable::new();
        for i in 0..4096u64 {
            pt.map(Vpn::new(i, PageSize::Base4K), Pfn::new(i, PageSize::Base4K))
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(pt.walk(VirtAddr::new(i << 12)).unwrap())
        });
    });

    // Component: PCC frequency update on the hit path.
    g.bench_function("pcc_record_walk", |b| {
        let mut pcc = Pcc::new(PccConfig::paper_2m(), PageSize::Huge2M);
        for i in 0..32u64 {
            pcc.record_walk(Vpn::new(i, PageSize::Huge2M), true);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 32;
            black_box(pcc.record_walk(Vpn::new(i, PageSize::Huge2M), true))
        });
    });

    // Trace pipeline: HPT2 decode throughput through the mmap-backed
    // zero-copy window path — the rate a recorded trace feeds the
    // simulator, excluding simulation itself. The records are a
    // scale-18 BFS stream.
    let scale = WorkloadScale {
        graph_scale: 18,
        synth: SynthScale::BENCH,
        dbg_sorted: false,
    };
    let w = instantiate(AppId::Bfs, Dataset::Kronecker, scale, 0xC0FFEE);
    let trace_records: u64 = 2_000_000;
    let trace_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("hpage-hotpath-{}.hpt2", std::process::id()));
        let file = std::fs::File::create(&p).expect("create bench trace");
        let mut wtr =
            hpage_trace::Hpt2Writer::new(std::io::BufWriter::new(file)).expect("hpt2 header");
        let mut s = w.thread_stream(0, 1);
        let mut left = trace_records;
        while left > 0 {
            let win = s.next_window(left.min(4096) as usize);
            if win.is_empty() {
                break;
            }
            left -= win.len() as u64;
            wtr.write_all(win.iter().copied()).expect("hpt2 block");
        }
        wtr.finish().expect("hpt2 trailer");
        p
    };
    let mapped = hpage_trace::MmapTrace::open("bench", &trace_path).expect("mmap bench trace");
    g.throughput(Throughput::Elements(trace_records));
    g.bench_function("hpt2_mmap_decode", |b| {
        b.iter(|| {
            let mut s = mapped.thread_stream(0, 1);
            let mut total = 0u64;
            loop {
                let win = s.next_window(4096);
                if win.is_empty() {
                    break;
                }
                total += win.len() as u64;
                black_box(win);
            }
            total
        })
    });

    // Meta-effect: streaming over the simulator's huge-page-aligned
    // working buffers (`HugeVec`, 2 MiB-aligned + MADV_HUGEPAGE) vs the
    // same traversal over a plain `Vec` — the dTLB-relief the tracing
    // buffers themselves get from THP.
    let words: usize = 1 << 23;
    let mut huge: hpage_trace::HugeVec<u64> = hpage_trace::HugeVec::with_capacity(words);
    let mut plain: Vec<u64> = Vec::with_capacity(words);
    for i in 0..words as u64 {
        huge.push(i.wrapping_mul(0x9E3779B97F4A7C15));
        plain.push(i.wrapping_mul(0x9E3779B97F4A7C15));
    }
    // Strided touch (one read per cache line) so the page-locality
    // difference, not memory bandwidth, dominates.
    let stride = 8;
    g.throughput(Throughput::Elements((words / stride) as u64));
    g.bench_function("hugevec_stream", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let s = huge.as_slice();
            let mut i = 0;
            while i < s.len() {
                acc = acc.wrapping_add(s[i]);
                i += stride;
            }
            black_box(acc)
        })
    });
    g.bench_function("vec_stream", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let mut i = 0;
            while i < plain.len() {
                acc = acc.wrapping_add(plain[i]);
                i += stride;
            }
            black_box(acc)
        })
    });
    g.finish();
    drop(mapped);
    let _ = std::fs::remove_file(&trace_path);
}

criterion_group!(benches, bench);
criterion_main!(benches);
